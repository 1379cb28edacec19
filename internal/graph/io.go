package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteEdgeList writes g as a plain-text edge list: a header line
// "n m" followed by one "u v w" line per undirected edge (u < v).
func (g *Graph) WriteEdgeList(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%d %d\n", g.NumV, g.M()); err != nil {
		return err
	}
	for u := int32(0); u < g.NumV; u++ {
		adj, wgt := g.Neighbors(u)
		for i, v := range adj {
			if u < v {
				if _, err := fmt.Fprintf(bw, "%d %d %d\n", u, v, wgt[i]); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// MaxParseVertices bounds the vertex count parsers accept (2^28). The
// limit exists so that a tiny crafted header cannot demand an enormous
// allocation; it is far above the module's laptop-scale workloads.
const MaxParseVertices = 1 << 28

// maxParseEdges bounds claimed edge counts the parsers trust.
const maxParseEdges = int64(1) << 33

// ReadEdgeList parses the format written by WriteEdgeList. The weight
// column is optional (defaults to 1), so plain "u v" edge lists load too.
// Lines starting with '#' or '%' are comments. A line and its newline must
// fit in streamChunk bytes, as in StreamEdges.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, min(1<<20, streamChunk)), streamChunk)
	var n int
	var m int64
	var edges []Edge
	lineNo := 0
	header := false
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if !header {
			if len(fields) != 2 {
				return nil, fmt.Errorf("graph: line %d: header must be \"n m\"", lineNo)
			}
			nn, err1 := strconv.Atoi(fields[0])
			mm, err2 := strconv.ParseInt(fields[1], 10, 64)
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("graph: line %d: bad header %q", lineNo, line)
			}
			if nn < 0 || nn > MaxParseVertices || mm < 0 || mm > maxParseEdges {
				return nil, fmt.Errorf("graph: line %d: implausible header n=%d m=%d", lineNo, nn, mm)
			}
			n, m = nn, mm
			// Capacity grows with actual content, never with the claimed
			// header (which an adversarial input controls).
			edges = make([]Edge, 0, min64(m, 1<<16))
			header = true
			continue
		}
		if len(fields) != 2 && len(fields) != 3 {
			return nil, fmt.Errorf("graph: line %d: want \"u v [w]\", got %q", lineNo, line)
		}
		u, err1 := strconv.ParseInt(fields[0], 10, 32)
		v, err2 := strconv.ParseInt(fields[1], 10, 32)
		w := int64(1)
		var err3 error
		if len(fields) == 3 {
			w, err3 = strconv.ParseInt(fields[2], 10, 64)
		}
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("graph: line %d: bad edge %q", lineNo, line)
		}
		edges = append(edges, Edge{int32(u), int32(v), w})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !header {
		return nil, fmt.Errorf("graph: empty input")
	}
	g, err := FromEdges(n, edges)
	if err != nil {
		return nil, err
	}
	if g.M() != m {
		return nil, fmt.Errorf("graph: header claims %d edges, found %d after dedup", m, g.M())
	}
	return g, nil
}

const binMagic = uint64(0x6d6c63672d637372) // "mlcg-csr"

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// WriteBinary writes g in a compact little-endian CSR container. The
// format: magic, n, nnz, hasVWgt flag, then Xadj, Adj, Wgt, and VWgt.
// Values are encoded through one fixed buffer, so writing (and hashing,
// as the service's content ids do) copies no whole array.
func (g *Graph) WriteBinary(w io.Writer) error {
	e := leWriter{w: w, buf: make([]byte, 0, 64<<10)}
	var flag int64
	if g.VWgt != nil {
		flag = 1
	}
	e.int64s([]int64{int64(binMagic), int64(g.NumV), int64(len(g.Adj)), flag})
	e.int64s(g.Xadj)
	e.int32s(g.Adj)
	e.int64s(g.Wgt)
	if g.VWgt != nil {
		e.int64s(g.VWgt)
	}
	e.flush()
	return e.err
}

// leWriter encodes little-endian values into a fixed buffer and writes it
// out whenever it fills. The first write error sticks.
type leWriter struct {
	w   io.Writer
	buf []byte
	err error
}

func (e *leWriter) flush() {
	if e.err == nil && len(e.buf) > 0 {
		_, e.err = e.w.Write(e.buf)
	}
	e.buf = e.buf[:0]
}

func (e *leWriter) int64s(s []int64) {
	for _, v := range s {
		if len(e.buf)+8 > cap(e.buf) {
			e.flush()
		}
		e.buf = binary.LittleEndian.AppendUint64(e.buf, uint64(v))
	}
}

func (e *leWriter) int32s(s []int32) {
	for _, v := range s {
		if len(e.buf)+4 > cap(e.buf) {
			e.flush()
		}
		e.buf = binary.LittleEndian.AppendUint32(e.buf, uint32(v))
	}
}

// readChunk bounds how many elements the binary readers decode per step.
// Size-prefixed formats must never trust a claimed length for an up-front
// make(): a 32-byte crafted header claiming 2^34 elements would otherwise
// demand tens of GiB before the short read is even noticed. Reading in
// bounded steps means a truncated stream fails after at most one step.
const readChunk = 1 << 16

// readLE reads count little-endian values of T. Each step of at most
// readChunk values goes through io.ReadFull into one reused byte buffer
// and is decoded into the output, which grows by doubling but never past
// count. A lying length prefix therefore costs at most about twice the
// values the stream really holds, plus one step.
func readLE[T int32 | int64](r io.Reader, count int, what string) ([]T, error) {
	size := binary.Size(T(0))
	out := make([]T, 0, min(count, readChunk))
	buf := make([]byte, size*min(count, readChunk))
	for len(out) < count {
		k := min(count-len(out), readChunk)
		b := buf[:size*k]
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, fmt.Errorf("graph: short %s (%d/%d values): %w", what, len(out), count, err)
		}
		if len(out)+k > cap(out) {
			grown := make([]T, len(out), min(max(2*cap(out), len(out)+k), count))
			copy(grown, out)
			out = grown
		}
		if size == 8 {
			for i := 0; i < len(b); i += 8 {
				out = append(out, T(binary.LittleEndian.Uint64(b[i:])))
			}
		} else {
			for i := 0; i < len(b); i += 4 {
				out = append(out, T(int32(binary.LittleEndian.Uint32(b[i:]))))
			}
		}
	}
	return out, nil
}

// ReadBinary parses the container written by WriteBinary and validates the
// result. It is safe on untrusted input: claimed lengths are range-checked
// and materialized in bounded chunks, so truncated or lying headers produce
// an error, not an enormous allocation.
func ReadBinary(r io.Reader) (*Graph, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var hdr [4]uint64
	for i := range hdr {
		if err := binary.Read(br, binary.LittleEndian, &hdr[i]); err != nil {
			return nil, fmt.Errorf("graph: short binary header: %w", err)
		}
	}
	if hdr[0] != binMagic {
		return nil, fmt.Errorf("graph: bad magic %#x", hdr[0])
	}
	if hdr[1] > MaxParseVertices || hdr[2] > uint64(2*maxParseEdges) || hdr[3] > 1 {
		return nil, fmt.Errorf("graph: bad binary sizes n=%d nnz=%d flag=%d", hdr[1], hdr[2], hdr[3])
	}
	n, nnz := int(hdr[1]), int(hdr[2])
	g := &Graph{NumV: int32(n)}
	var err error
	if g.Xadj, err = readLE[int64](br, n+1, "Xadj"); err != nil {
		return nil, err
	}
	if g.Adj, err = readLE[int32](br, nnz, "Adj"); err != nil {
		return nil, err
	}
	if g.Wgt, err = readLE[int64](br, nnz, "Wgt"); err != nil {
		return nil, err
	}
	if hdr[3] == 1 {
		if g.VWgt, err = readLE[int64](br, n, "VWgt"); err != nil {
			return nil, err
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// WriteDOT writes g in Graphviz DOT format, optionally coloring vertices by
// a group array (e.g. a coarse mapping or a bisection part vector). Used by
// the Fig 1 demo to visualize one level of coarsening.
func (g *Graph) WriteDOT(w io.Writer, name string, group []int32) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "graph %q {\n  node [shape=circle];\n", name); err != nil {
		return err
	}
	palette := []string{
		"lightblue", "salmon", "palegreen", "gold", "plum", "lightgray",
		"orange", "cyan", "pink", "yellowgreen", "tan", "orchid",
	}
	for u := int32(0); u < g.NumV; u++ {
		if group != nil {
			color := palette[int(group[u])%len(palette)]
			fmt.Fprintf(bw, "  %d [style=filled, fillcolor=%s, label=\"%d/%d\"];\n", u, color, u, group[u])
		} else {
			fmt.Fprintf(bw, "  %d;\n", u)
		}
	}
	for u := int32(0); u < g.NumV; u++ {
		adj, wgt := g.Neighbors(u)
		for i, v := range adj {
			if u < v {
				fmt.Fprintf(bw, "  %d -- %d [label=%d];\n", u, v, wgt[i])
			}
		}
	}
	if _, err := fmt.Fprintln(bw, "}"); err != nil {
		return err
	}
	return bw.Flush()
}
