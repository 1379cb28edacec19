package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// WriteMetis writes g in the Metis/Chaco .graph format: a header line
// "n m fmt" followed by one line per vertex listing its neighbors
// (1-indexed). fmt is chosen automatically: 1 when edge weights are
// non-unit ("001"), 11 when vertex weights are also present ("011").
func (g *Graph) WriteMetis(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	hasEW := false
	for _, wt := range g.Wgt {
		if wt != 1 {
			hasEW = true
			break
		}
	}
	hasVW := g.VWgt != nil
	format := ""
	switch {
	case hasVW && hasEW:
		format = " 011"
	case hasVW:
		format = " 010"
	case hasEW:
		format = " 001"
	}
	if _, err := fmt.Fprintf(bw, "%d %d%s\n", g.NumV, g.M(), format); err != nil {
		return err
	}
	for u := int32(0); u < g.NumV; u++ {
		first := true
		if hasVW {
			fmt.Fprintf(bw, "%d", g.VertexWeight(u))
			first = false
		}
		adj, wgt := g.Neighbors(u)
		for k, v := range adj {
			if !first {
				if err := bw.WriteByte(' '); err != nil {
					return err
				}
			}
			first = false
			if hasEW {
				fmt.Fprintf(bw, "%d %d", v+1, wgt[k])
			} else {
				fmt.Fprintf(bw, "%d", v+1)
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadMetis parses the Metis/Chaco .graph format, supporting the 000, 001,
// 010, and 011 format codes (edge weights, vertex weights, or both;
// multi-constraint vertex weights are not supported). Comment lines start
// with '%'.
func ReadMetis(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)

	// Comment lines (starting with %) are skipped everywhere. Blank lines
	// are skipped only before the header: a blank vertex line is a valid
	// isolated vertex.
	nextLine := func(skipBlank bool) (string, bool) {
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if len(line) > 0 && line[0] == '%' {
				continue
			}
			if line == "" && skipBlank {
				continue
			}
			return line, true
		}
		return "", false
	}

	header, ok := nextLine(true)
	if !ok {
		return nil, fmt.Errorf("graph: empty metis input")
	}
	hf := strings.Fields(header)
	if len(hf) < 2 || len(hf) > 4 {
		return nil, fmt.Errorf("graph: bad metis header %q", header)
	}
	n, err1 := strconv.Atoi(hf[0])
	m, err2 := strconv.ParseInt(hf[1], 10, 64)
	if err1 != nil || err2 != nil || n < 0 {
		return nil, fmt.Errorf("graph: bad metis header %q", header)
	}
	if n > MaxParseVertices || m < 0 || m > maxParseEdges {
		return nil, fmt.Errorf("graph: implausible metis header n=%d m=%d", n, m)
	}
	hasVW, hasEW := false, false
	if len(hf) >= 3 {
		code := hf[2]
		if len(code) > 3 {
			return nil, fmt.Errorf("graph: bad metis format code %q", code)
		}
		for len(code) < 3 {
			code = "0" + code
		}
		if code[0] != '0' {
			return nil, fmt.Errorf("graph: metis vertex sizes (fmt %q) unsupported", hf[2])
		}
		hasVW = code[1] == '1'
		hasEW = code[2] == '1'
	}
	if len(hf) == 4 && hf[3] != "1" {
		return nil, fmt.Errorf("graph: multi-constraint metis files (ncon=%s) unsupported", hf[3])
	}

	// Allocations grow with the actual input, never with the header's
	// claims (an adversarial header must not demand huge buffers).
	edges := make([]Edge, 0, min64(m, 1<<16))
	var vwgt []int64
	var vtotal int64
	for u := 0; u < n; u++ {
		line, ok := nextLine(false)
		if !ok {
			return nil, fmt.Errorf("graph: metis file ends at vertex %d of %d", u+1, n)
		}
		fields := strings.Fields(line)
		idx := 0
		if hasVW {
			if len(fields) == 0 {
				return nil, fmt.Errorf("graph: vertex %d missing weight", u+1)
			}
			w, err := strconv.ParseInt(fields[0], 10, 64)
			if err != nil || w <= 0 {
				return nil, fmt.Errorf("graph: vertex %d bad weight %q", u+1, fields[0])
			}
			if w > math.MaxInt64-vtotal {
				return nil, fmt.Errorf("graph: total vertex weight overflows int64 at vertex %d", u+1)
			}
			vtotal += w
			vwgt = append(vwgt, w)
			idx = 1
		}
		step := 1
		if hasEW {
			step = 2
		}
		for ; idx < len(fields); idx += step {
			v, err := strconv.ParseInt(fields[idx], 10, 32)
			if err != nil || v < 1 || int(v) > n {
				return nil, fmt.Errorf("graph: vertex %d bad neighbor %q", u+1, fields[idx])
			}
			w := int64(1)
			if hasEW {
				if idx+1 >= len(fields) {
					return nil, fmt.Errorf("graph: vertex %d neighbor %d missing weight", u+1, v)
				}
				w, err = strconv.ParseInt(fields[idx+1], 10, 64)
				if err != nil || w <= 0 {
					return nil, fmt.Errorf("graph: vertex %d bad edge weight %q", u+1, fields[idx+1])
				}
			}
			if int64(u) < v-1 { // each undirected edge appears twice; keep one
				edges = append(edges, Edge{int32(u), int32(v - 1), w})
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	g, err := FromEdges(n, edges)
	if err != nil {
		return nil, err
	}
	if g.M() != m {
		return nil, fmt.Errorf("graph: metis header claims %d edges, found %d", m, g.M())
	}
	g.VWgt = vwgt
	return g, nil
}

// RelabelByBFS returns a copy of g with vertices renumbered in BFS order
// from the given source (improving CSR locality, the paper's "relabel
// vertex identifiers" preprocessing), plus the old-id array indexed by new
// id. The graph must be connected.
func (g *Graph) RelabelByBFS(src int32) (*Graph, []int32, error) {
	_, order := g.BFS(src)
	if len(order) != g.N() {
		return nil, nil, fmt.Errorf("graph: RelabelByBFS requires a connected graph (%d of %d reached)",
			len(order), g.N())
	}
	newID := make([]int32, g.NumV)
	for pos, old := range order {
		newID[old] = int32(pos)
	}
	var edges []Edge
	for u := int32(0); u < g.NumV; u++ {
		adj, wgt := g.Neighbors(u)
		for k, v := range adj {
			if u < v {
				edges = append(edges, Edge{newID[u], newID[v], wgt[k]})
			}
		}
	}
	out, err := FromEdges(g.N(), edges)
	if err != nil {
		return nil, nil, err
	}
	if g.VWgt != nil {
		out.VWgt = make([]int64, g.NumV)
		for old, vw := range g.VWgt {
			out.VWgt[newID[old]] = vw
		}
	}
	return out, order, nil
}
