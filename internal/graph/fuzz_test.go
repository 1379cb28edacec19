package graph

import (
	"bytes"
	"encoding/binary"
	"math"
	"strconv"
	"strings"
	"testing"
)

// headerTooBigForFuzz skips inputs whose (legitimate) header asks for more
// vertices than the fuzz environment's memory budget allows. The parsers
// themselves cap at MaxParseVertices and tie buffer growth to actual
// content; this guard only bounds the fuzz harness's peak RSS.
func headerTooBigForFuzz(in string) bool {
	for _, line := range strings.Split(in, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		n, err := strconv.ParseInt(fields[0], 10, 64)
		return err == nil && n > 1<<20
	}
	return false
}

// The fuzz targets double as robustness tests: with `go test` they run
// over the seed corpus; `go test -fuzz=FuzzReadEdgeList` explores further.

func FuzzReadEdgeList(f *testing.F) {
	seeds := []string{
		"3 2\n0 1\n1 2 5\n",
		"0 0\n",
		"2 1\n0 1 9223372036854775807\n",
		"# comment\n% more\n1 0\n",
		"4 3\n0 1\n1 2\n2 3\n",
		"junk",
		"3 2\n0 1\n0 1\n", // duplicate: header mismatch after merge
		"2 1\n1 0 -5\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		if headerTooBigForFuzz(in) {
			t.Skip()
		}
		g, err := ReadEdgeList(strings.NewReader(in))
		if err != nil {
			return // rejection is fine; crashing is not
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted graph fails validation: %v\ninput: %q", err, in)
		}
		// Round trip must succeed and reproduce the graph.
		var buf bytes.Buffer
		if err := g.WriteEdgeList(&buf); err != nil {
			t.Fatal(err)
		}
		h, err := ReadEdgeList(&buf)
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if !Equal(g, h) {
			t.Fatalf("round trip changed the graph\ninput: %q", in)
		}
	})
}

func FuzzReadMetis(f *testing.F) {
	seeds := []string{
		"3 2\n2\n1 3\n2\n",
		"3 2 001\n2 5\n1 5 3 4\n2 4\n",
		"3 2 010\n7 2\n3 1 3\n2 2\n",
		"2 1 011 1\n1 2 9\n1 1 9\n",
		"% c\n1 0\n\n",
		"7 11\n5 3 2\n1 3 4\n5 4 2 1\n2 3 6 7\n1 3 6\n5 4 7\n6 4\n",
		"bogus",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		if headerTooBigForFuzz(in) {
			t.Skip()
		}
		g, err := ReadMetis(strings.NewReader(in))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted metis graph fails validation: %v\ninput: %q", err, in)
		}
		var buf bytes.Buffer
		if err := g.WriteMetis(&buf); err != nil {
			t.Fatal(err)
		}
		h, err := ReadMetis(&buf)
		if err != nil {
			t.Fatalf("round trip rejected: %v\noriginal: %q\nwritten: %q", err, in, buf.String())
		}
		if !Equal(g, h) {
			t.Fatalf("round trip changed the graph\ninput: %q", in)
		}
	})
}

// encodeFuzzEdges packs an edge list into the 16-bytes-per-edge wire form
// FuzzCSRFromEdges decodes (u, v int32; w int64, little endian).
func encodeFuzzEdges(edges []Edge) []byte {
	out := make([]byte, 0, 16*len(edges))
	var b [16]byte
	for _, e := range edges {
		binary.LittleEndian.PutUint32(b[0:], uint32(e.U))
		binary.LittleEndian.PutUint32(b[4:], uint32(e.V))
		binary.LittleEndian.PutUint64(b[8:], uint64(e.W))
		out = append(out, b[:]...)
	}
	return out
}

// FuzzCSRFromEdges drives FromEdges with arbitrary (vertex count, edge
// list) pairs: malformed input (out-of-range endpoints, non-positive or
// overflowing weights) must be rejected with an error, and anything
// accepted must pass the full CSR validation battery and survive an
// edge-list round trip — never panic, never return a half-built graph.
// Both the one-worker kernel and its parallel path at p = 3 (forced past
// the edge-count gate, over the list cut into three runs) must return the
// global-sort reference's Xadj, Adj and Wgt bit for bit, and FromEdges its
// error text.
func FuzzCSRFromEdges(f *testing.F) {
	f.Add(3, encodeFuzzEdges([]Edge{{0, 1, 2}, {1, 2, 3}}))
	f.Add(4, encodeFuzzEdges([]Edge{{0, 1, 1}, {1, 0, 1}, {2, 3, 5}, {3, 3, 9}}))
	f.Add(2, encodeFuzzEdges([]Edge{{0, 1, math.MaxInt64}, {1, 0, math.MaxInt64}})) // merged weight overflow
	f.Add(2, encodeFuzzEdges([]Edge{{0, 1, -7}}))                                   // negative weight
	f.Add(2, encodeFuzzEdges([]Edge{{0, 5, 1}}))                                    // endpoint out of range
	f.Add(0, []byte{})
	// A generator-shaped seed: the 4-cycle with a chord, in both orientations.
	f.Add(4, encodeFuzzEdges([]Edge{{0, 1, 1}, {1, 2, 1}, {2, 3, 1}, {3, 0, 1}, {0, 2, 2}, {2, 0, 2}}))
	// Truncated wire form (partial trailing record) and an oversized vertex
	// count relative to the edge content.
	f.Add(3, encodeFuzzEdges([]Edge{{0, 1, 2}, {1, 2, 3}})[:20])
	f.Add(1<<19, encodeFuzzEdges([]Edge{{0, 1, 1}}))
	f.Fuzz(func(t *testing.T, n int, data []byte) {
		if n < 0 || n > 1<<20 || len(data) > 1<<16 {
			t.Skip() // bound harness memory, not parser behavior
		}
		edges := make([]Edge, 0, len(data)/16)
		for i := 0; i+16 <= len(data); i += 16 {
			edges = append(edges, Edge{
				U: int32(binary.LittleEndian.Uint32(data[i:])),
				V: int32(binary.LittleEndian.Uint32(data[i+4:])),
				W: int64(binary.LittleEndian.Uint64(data[i+8:])),
			})
		}
		want, werr := refFromEdges(n, edges)
		g, err := FromEdges(n, edges)
		if errText(err) != errText(werr) {
			t.Fatalf("FromEdges error %q, reference %q\nn=%d edges=%v", errText(err), errText(werr), n, edges)
		}
		if err != nil {
			return // rejection is fine; crashing is not
		}
		if !sameCSR(g, want) {
			t.Fatalf("FromEdges differs from the reference\nn=%d edges=%v", n, edges)
		}
		a, b := len(edges)/3, len(edges)*2/3
		if gp := buildPar(n, [][]Edge{edges[:a], edges[a:b], edges[b:]}, len(edges), 3); !sameCSR(gp, want) {
			t.Fatalf("parallel kernel at p=3 differs from the reference\nn=%d edges=%v", n, edges)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted graph fails validation: %v\nn=%d edges=%v", err, n, edges)
		}
		var buf bytes.Buffer
		if err := g.WriteEdgeList(&buf); err != nil {
			t.Fatal(err)
		}
		h, err := ReadEdgeList(&buf)
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if !Equal(g, h) {
			t.Fatalf("round trip changed the graph\nn=%d edges=%v", n, edges)
		}
	})
}

func FuzzReadBinary(f *testing.F) {
	// Seed with a valid container and mutations of it.
	g := MustFromEdges(3, []Edge{{0, 1, 2}, {1, 2, 3}})
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	truncated := append([]byte(nil), valid[:len(valid)/2]...)
	f.Add(truncated)
	flipped := append([]byte(nil), valid...)
	flipped[20] ^= 0xff
	f.Add(flipped)
	// Lying length prefixes: headers that claim far more payload than the
	// stream carries. Chunked allocation must turn these into short-read
	// errors, not multi-GiB make() calls — no skip guard needed anymore.
	hostile := func(n, nnz, flag uint64) []byte {
		var b bytes.Buffer
		for _, v := range []uint64{binMagic, n, nnz, flag} {
			binary.Write(&b, binary.LittleEndian, v)
		}
		return b.Bytes()
	}
	f.Add(hostile(1<<28, 1<<33, 0))                   // max in-range claim, zero payload
	f.Add(hostile(3, 1<<60, 0))                       // nnz beyond the range check
	f.Add(hostile(1<<63, 4, 1))                       // n overflows int32
	f.Add(append(hostile(1<<20, 1<<22, 0), valid...)) // big claim, partial garbage payload
	f.Fuzz(func(t *testing.T, in []byte) {
		h, err := ReadBinary(bytes.NewReader(in))
		if err != nil {
			return
		}
		if err := h.Validate(); err != nil {
			t.Fatalf("accepted binary graph fails validation: %v", err)
		}
	})
}
