package graph

import (
	"bytes"
	"fmt"
	"io"
	"unicode"
	"unicode/utf8"

	"mlcg/internal/par"
)

// streamChunk is the read size and the line limit of both text readers:
// StreamEdges reads its input into one block of this many bytes, so a line
// and its newline must fit in it, and ReadEdgeList's scanner holds lines
// to the same bound. A variable so tests can shrink it to force the
// multi-block carry path on small inputs.
var streamChunk = 4 << 20

// minPiece is the smallest block piece worth handing to another worker. A
// variable so tests can split tiny inputs into many pieces.
var minPiece = 16 << 10

// StreamEdges parses the WriteEdgeList text format like ReadEdgeList, on p
// workers. It accepts exactly the inputs ReadEdgeList accepts and returns
// the same graph: both split fields by ReadEdgeList's rule (runs of
// Unicode white space), hold lines below streamChunk bytes and build
// through one kernel.
//
// The input is read in blocks of streamChunk bytes, each cut at its last
// newline. Each block is split into newline-aligned pieces parsed on
// p workers, and the pieces' edge slices go to the CSR kernel (buildCSR,
// also on p workers) as they are, in input order, without being
// concatenated. A piece parses ASCII "u v [w]" lines in one pass; a line
// that pass does not fully recognise (a comment, a sign, other white
// space, a long number) goes to the general per-line parser, so errors
// are those of a sequential parse: the first bad line in input order is
// reported.
func StreamEdges(r io.Reader, p int) (*Graph, error) {
	block := make([]byte, streamChunk)
	var (
		n      int
		m      int64
		header bool
		runs   [][]Edge
		carry  int // bytes of a partial line moved to the block's front
	)
	for {
		nr, err := io.ReadFull(r, block[carry:])
		data := block[:carry+nr]
		eof := err == io.EOF || err == io.ErrUnexpectedEOF
		if err != nil && !eof {
			return nil, err
		}
		next := len(data)
		if !eof {
			// Leave the trailing partial line for the next block so every
			// block ends on a line boundary.
			cut := bytes.LastIndexByte(data, '\n')
			if cut < 0 {
				return nil, fmt.Errorf("graph: edge line exceeds %d bytes", streamChunk)
			}
			next = cut + 1
		}
		body := data[:next]
		if !header {
			// The header is parsed before any piece: it determines n and
			// the claimed edge count, and keeping it out of the piece
			// grammar means every piece line has the same "u v [w]" shape.
			var herr error
			if body, n, m, header, herr = parseHeader(body); herr != nil {
				return nil, herr
			}
		}
		if header && len(body) > 0 {
			pieces, err := parsePieces(body, p)
			if err != nil {
				return nil, err
			}
			runs = append(runs, pieces...)
		}
		if eof {
			break
		}
		carry = copy(block, data[next:])
	}
	if !header {
		return nil, fmt.Errorf("graph: empty input")
	}
	g, err := buildCSR(n, runs, p)
	if err != nil {
		return nil, err
	}
	if g.M() != m {
		return nil, fmt.Errorf("graph: header claims %d edges, found %d after dedup", m, g.M())
	}
	return g, nil
}

// parseHeader skips comment and blank lines at the front of data until the
// "n m" header. It returns the data after the header line and whether the
// header was found; without one, all of data was comments.
func parseHeader(data []byte) (rest []byte, n int, m int64, ok bool, err error) {
	for len(data) > 0 {
		line := data
		if nl := bytes.IndexByte(data, '\n'); nl >= 0 {
			line, data = data[:nl], data[nl+1:]
		} else {
			data = nil
		}
		f0, tail := nextField(line)
		if f0 == nil || f0[0] == '#' || f0[0] == '%' {
			continue
		}
		t := bytes.TrimSpace(line)
		f1, tail := nextField(tail)
		if f2, _ := nextField(tail); f1 == nil || f2 != nil {
			return nil, 0, 0, false, fmt.Errorf("graph: header must be \"n m\", got %q", t)
		}
		nn, ok1 := parseInt(f0)
		mm, ok2 := parseInt(f1)
		if !ok1 || !ok2 {
			return nil, 0, 0, false, fmt.Errorf("graph: bad header %q", t)
		}
		if nn < 0 || nn > MaxParseVertices || mm < 0 || mm > maxParseEdges {
			return nil, 0, 0, false, fmt.Errorf("graph: implausible header n=%d m=%d", nn, mm)
		}
		return data, int(nn), mm, true, nil
	}
	return nil, 0, 0, false, nil
}

// parsePieces splits a newline-aligned block into up to p newline-aligned
// pieces, parses them in parallel, and returns their edge slices in input
// order, or the first piece's error.
func parsePieces(body []byte, p int) ([][]Edge, error) {
	k := min(par.Workers(p, len(body)/minPiece), len(body)/minPiece)
	k = max(k, 1)
	bounds := make([]int, k+1)
	for i := 1; i < k; i++ {
		at := max(len(body)*i/k, bounds[i-1])
		if nl := bytes.IndexByte(body[at:], '\n'); nl >= 0 {
			at += nl + 1
		} else {
			at = len(body)
		}
		bounds[i] = at
	}
	bounds[k] = len(body)
	runs := make([][]Edge, k)
	errs := make([]error, k)
	par.For(k, k, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			runs[i], errs[i] = parseEdgePiece(body[bounds[i]:bounds[i+1]])
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return runs, nil
}

// parseEdgePiece parses a newline-aligned run of "u v [w]" lines. Comments
// and blank lines are allowed anywhere, matching ReadEdgeList.
func parseEdgePiece(data []byte) ([]Edge, error) {
	// Every edge is one line, so the newline count (plus an unterminated
	// last line) bounds the slice without trusting anything but the data.
	edges := make([]Edge, 0, bytes.Count(data, []byte{'\n'})+1)
	for i := 0; i < len(data); {
		// One pass over an ASCII line: up to three decimal fields of at
		// most 18 digits (so no overflow) between spaces, tabs and CRs.
		var f [3]int64
		nf, j := 0, i
		for {
			for j < len(data) && (data[j] == ' ' || data[j] == '\t' || data[j] == '\r') {
				j++
			}
			if j == len(data) || data[j] == '\n' || nf == 3 || data[j]-'0' > 9 {
				break
			}
			var v int64
			for d := 0; j < len(data) && data[j]-'0' <= 9 && d < 18; d++ {
				v = v*10 + int64(data[j]-'0')
				j++
			}
			f[nf] = v
			nf++
			if j < len(data) && data[j] != ' ' && data[j] != '\t' && data[j] != '\r' && data[j] != '\n' {
				nf = -1 // the field does not end in a separator
				break
			}
		}
		if nf >= 2 && (j == len(data) || data[j] == '\n') && f[0] <= 1<<31-1 && f[1] <= 1<<31-1 {
			w := int64(1)
			if nf == 3 {
				w = f[2]
			}
			edges = append(edges, Edge{int32(f[0]), int32(f[1]), w})
			i = j + 1
			continue
		}
		// The general path: the whole line by ReadEdgeList's grammar.
		line := data[i:]
		if nl := bytes.IndexByte(line, '\n'); nl >= 0 {
			line = line[:nl]
		}
		i += len(line) + 1
		e, skip, err := parseEdgeLine(line)
		if err != nil {
			return nil, err
		}
		if !skip {
			edges = append(edges, e)
		}
	}
	return edges, nil
}

// parseEdgeLine parses one line by ReadEdgeList's rules, reporting skip
// for blank and comment lines.
func parseEdgeLine(line []byte) (e Edge, skip bool, err error) {
	f0, rest := nextField(line)
	if f0 == nil || f0[0] == '#' || f0[0] == '%' {
		return Edge{}, true, nil
	}
	t := bytes.TrimSpace(line)
	f1, rest := nextField(rest)
	f2, rest := nextField(rest)
	if f3, _ := nextField(rest); f1 == nil || f3 != nil {
		return Edge{}, false, fmt.Errorf("graph: want \"u v [w]\", got %q", t)
	}
	u, ok1 := parseInt(f0)
	v, ok2 := parseInt(f1)
	w, ok3 := int64(1), true
	if f2 != nil {
		w, ok3 = parseInt(f2)
	}
	if !ok1 || !ok2 || !ok3 || u != int64(int32(u)) || v != int64(int32(v)) {
		return Edge{}, false, fmt.Errorf("graph: bad edge %q", t)
	}
	return Edge{int32(u), int32(v), w}, false, nil
}

// nextField splits the leading field off t by strings.Fields's rule:
// fields are separated by runs of Unicode white space. It returns nil when
// no field remains.
func nextField(t []byte) (field, rest []byte) {
	i := 0
	for i < len(t) {
		sp, size := spaceAt(t[i:])
		if !sp {
			break
		}
		i += size
	}
	j := i
	for j < len(t) {
		sp, size := spaceAt(t[j:])
		if sp {
			break
		}
		j += size
	}
	if i == j {
		return nil, nil
	}
	return t[i:j], t[j:]
}

// spaceAt reports whether t starts with a white-space rune and that rune's
// width in bytes; an invalid byte is one non-space rune of width 1, as in
// strings.Fields.
func spaceAt(t []byte) (bool, int) {
	if c := t[0]; c < utf8.RuneSelf {
		return c == ' ' || c-'\t' <= '\r'-'\t', 1
	}
	r, size := utf8.DecodeRune(t)
	return unicode.IsSpace(r), size
}

// parseInt is a minimal signed decimal parser over a byte field — the
// strconv string round-trip is the hottest allocation in text ingest.
// Overflow-checks against int64 like strconv.ParseInt(s, 10, 64).
func parseInt(f []byte) (int64, bool) {
	neg := false
	if len(f) > 0 && (f[0] == '-' || f[0] == '+') {
		neg = f[0] == '-'
		f = f[1:]
	}
	if len(f) == 0 {
		return 0, false
	}
	var v int64
	for _, c := range f {
		if c < '0' || c > '9' {
			return 0, false
		}
		d := int64(c - '0')
		if v > (1<<63-1-d)/10 {
			return 0, false
		}
		v = v*10 + d
	}
	if neg {
		v = -v
	}
	return v, true
}
