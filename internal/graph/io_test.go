package graph

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

func TestEdgeListRoundTrip(t *testing.T) {
	g := MustFromEdges(5, []Edge{{0, 1, 2}, {1, 2, 3}, {2, 3, 1}, {3, 4, 9}, {4, 0, 1}})
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	h, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(g, h) {
		t.Error("edge-list round trip changed the graph")
	}
}

func TestReadEdgeListDefaultsAndComments(t *testing.T) {
	in := `# a comment
% another comment
3 2
0 1
1 2 5
`
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if w, _ := g.EdgeWeight(0, 1); w != 1 {
		t.Errorf("default weight = %d, want 1", w)
	}
	if w, _ := g.EdgeWeight(1, 2); w != 5 {
		t.Errorf("explicit weight = %d, want 5", w)
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []string{
		"",               // empty
		"junk header\n",  // bad header
		"2\n",            // header with one field
		"2 1\n0 1 2 3\n", // too many fields
		"2 1\n0 x\n",     // non-numeric
		"2 5\n0 1\n",     // edge count mismatch
		"2 1\n0 1 0\n",   // zero weight
		"2 1\n0 7\n",     // out of range
	}
	for _, in := range cases {
		if _, err := ReadEdgeList(strings.NewReader(in)); err == nil {
			t.Errorf("input %q accepted", in)
		}
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	g := MustFromEdges(6, []Edge{{0, 1, 2}, {1, 2, 3}, {2, 3, 1}, {3, 4, 9}, {4, 5, 1}, {5, 0, 4}})
	g.MaterializeVWgt()
	g.VWgt[3] = 11
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	h, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(g, h) {
		t.Error("binary round trip changed the graph")
	}
	if h.VWgt == nil || h.VWgt[3] != 11 {
		t.Error("vertex weights lost in binary round trip")
	}
}

func TestBinaryRoundTripNilVWgt(t *testing.T) {
	g := MustFromEdges(3, []Edge{{0, 1, 1}, {1, 2, 1}})
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	h, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.VWgt != nil {
		t.Error("nil VWgt materialized by round trip")
	}
}

// TestWriteBinaryMatchesReference pins WriteBinary's bytes, which the
// service's content ids hash, to the encoding of binary.Write on whole
// arrays, for graphs with and without vertex weights and larger than the
// encoder's buffer.
func TestWriteBinaryMatchesReference(t *testing.T) {
	big := path(20000)
	big.MaterializeVWgt()
	for _, g := range []*Graph{MustFromEdges(0, nil), star(5), path(7), big} {
		var want bytes.Buffer
		flag := uint64(0)
		if g.VWgt != nil {
			flag = 1
		}
		for _, v := range []any{[]uint64{binMagic, uint64(g.NumV), uint64(len(g.Adj)), flag}, g.Xadj, g.Adj, g.Wgt} {
			binary.Write(&want, binary.LittleEndian, v)
		}
		if g.VWgt != nil {
			binary.Write(&want, binary.LittleEndian, g.VWgt)
		}
		var got bytes.Buffer
		if err := g.WriteBinary(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("n=%d: WriteBinary bytes differ from the reference encoding", g.NumV)
		}
	}
}

func TestReadBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader([]byte("short"))); err == nil {
		t.Error("short input accepted")
	}
	bad := make([]byte, 64)
	if _, err := ReadBinary(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic accepted")
	}
}

// badVertexWeights are the vertex-weight vectors of an 80-vertex unit path
// that the weight rule rejects: one weight of -1000, all zeros, and two
// weights of 2^62, whose total overflows int64. Unchecked, a bisection
// of these graphs reports side weights of -921, 0 and a wrapped negative
// sum.
func badVertexWeights() map[string][]int64 {
	neg := make([]int64, 80)
	zero := make([]int64, 80)
	huge := make([]int64, 80)
	for i := range neg {
		neg[i], huge[i] = 1, 1
	}
	neg[40] = -1000
	huge[10], huge[70] = 1<<62, 1<<62
	return map[string][]int64{"negative": neg, "zero": zero, "overflow": huge}
}

// TestReadBinaryRejectsBadVertexWeights sends each bad vector through
// WriteBinary (which does not check) and ReadBinary, which must refuse it
// and name the rule.
func TestReadBinaryRejectsBadVertexWeights(t *testing.T) {
	want := map[string]string{"negative": "non-positive weight -1000 on vertex 40",
		"zero": "non-positive weight 0 on vertex 0", "overflow": "total vertex weight overflows int64 at vertex 70"}
	for name, vw := range badVertexWeights() {
		g := path(80)
		g.VWgt = vw
		var buf bytes.Buffer
		if err := g.WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		_, err := ReadBinary(&buf)
		if err == nil || !strings.Contains(err.Error(), want[name]) {
			t.Errorf("%s: ReadBinary error %v, want one containing %q", name, err, want[name])
		}
	}
}

// TestReadBinaryAllocations bounds what ReadBinary allocates on an
// RMAT-16-sized body (n = 46,952, 1.82 M entries, 22.2 MB): at most 3.5×
// the body, counting Validate's scratch. Decoding through one reused
// buffer into a doubling output takes about 3.2×; a fresh slice and a
// binary.Read buffer per step take about 6.8×.
func TestReadBinaryAllocations(t *testing.T) {
	const n, m = 46952, 910000
	rng := rand.New(rand.NewSource(16))
	edges := make([]Edge, m)
	for i := range edges {
		edges[i] = Edge{rng.Int31n(n), rng.Int31n(n), 1 + rng.Int63n(9)}
	}
	g := MustFromEdges(n, edges)
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	body := buf.Len()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h, err := ReadBinary(bytes.NewReader(buf.Bytes()))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(g, h) {
		t.Fatal("ReadBinary changed the graph")
	}
	ratio := float64(after.TotalAlloc-before.TotalAlloc) / float64(body)
	t.Logf("body %.1f MB, %d entries: ReadBinary allocated %.2f× the body", float64(body)/1e6, len(g.Adj), ratio)
	if ratio > 3.5 {
		t.Errorf("ReadBinary allocated %.2f× its %d-byte body, want at most 3.5×", ratio, body)
	}
}

func TestWriteDOT(t *testing.T) {
	g := MustFromEdges(3, []Edge{{0, 1, 2}, {1, 2, 1}})
	var buf bytes.Buffer
	if err := g.WriteDOT(&buf, "demo", []int32{0, 0, 1}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"graph \"demo\"", "0 -- 1 [label=2]", "1 -- 2 [label=1]", "fillcolor"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	if err := g.WriteDOT(&buf, "plain", nil); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "fillcolor") {
		t.Error("ungrouped DOT should not color nodes")
	}
}
