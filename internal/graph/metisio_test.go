package graph

import (
	"bytes"
	"strings"
	"testing"
)

func TestMetisRoundTripPlain(t *testing.T) {
	g := MustFromEdges(4, []Edge{{0, 1, 1}, {1, 2, 1}, {2, 3, 1}, {3, 0, 1}})
	var buf bytes.Buffer
	if err := g.WriteMetis(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "4 4\n") {
		t.Errorf("unweighted header wrong: %q", buf.String()[:10])
	}
	h, err := ReadMetis(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(g, h) {
		t.Error("plain metis round trip changed the graph")
	}
}

func TestMetisRoundTripWeighted(t *testing.T) {
	g := MustFromEdges(4, []Edge{{0, 1, 5}, {1, 2, 2}, {2, 3, 7}})
	g.MaterializeVWgt()
	g.VWgt = []int64{1, 2, 3, 4}
	var buf bytes.Buffer
	if err := g.WriteMetis(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.SplitN(buf.String(), "\n", 2)[0], "011") {
		t.Errorf("expected fmt 011 header, got %q", strings.SplitN(buf.String(), "\n", 2)[0])
	}
	h, err := ReadMetis(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(g, h) {
		t.Error("weighted metis round trip changed the graph")
	}
}

func TestMetisRoundTripEdgeWeightsOnly(t *testing.T) {
	g := MustFromEdges(3, []Edge{{0, 1, 9}, {1, 2, 4}})
	var buf bytes.Buffer
	if err := g.WriteMetis(&buf); err != nil {
		t.Fatal(err)
	}
	h, err := ReadMetis(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(g, h) {
		t.Error("edge-weight metis round trip changed the graph")
	}
}

func TestReadMetisKnownFile(t *testing.T) {
	// The example graph from the Metis manual (7 vertices, 11 edges).
	in := `% comment line
7 11
5 3 2
1 3 4
5 4 2 1
2 3 6 7
1 3 6
5 4 7
6 4
`
	g, err := ReadMetis(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 7 || g.M() != 11 {
		t.Fatalf("n=%d m=%d, want 7,11", g.N(), g.M())
	}
	if !g.HasEdge(0, 4) || !g.HasEdge(3, 6) {
		t.Error("expected edges missing")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReadMetisVertexWeights(t *testing.T) {
	in := `3 2 010
5 2
7 1 3
2 2
`
	g, err := ReadMetis(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.VWgt == nil || g.VWgt[0] != 5 || g.VWgt[1] != 7 || g.VWgt[2] != 2 {
		t.Errorf("vertex weights %v", g.VWgt)
	}
}

func TestReadMetisErrors(t *testing.T) {
	cases := []string{
		"",                    // empty
		"x y\n",               // junk header
		"2 1 100\n1\n2\n",     // vertex sizes unsupported
		"2 1 011 2\n1 1\n1 1", // multi-constraint
		"3 2\n2\n",            // truncated
		"2 1\n5\n1\n",         // neighbor out of range
		"2 1 001\n2\n1 3\n",   // missing edge weight
		"2 5\n2\n1\n",         // edge count mismatch
		"2 1 010\n4611686018427387904 2\n4611686018427387904 1\n", // vertex weight total overflows int64
	}
	for _, in := range cases {
		if _, err := ReadMetis(strings.NewReader(in)); err == nil {
			t.Errorf("input %q accepted", in)
		}
	}
}

func TestRelabelByBFS(t *testing.T) {
	// A graph with poor initial ordering; relabeled, vertex 0's neighbors
	// come first.
	g := MustFromEdges(6, []Edge{{0, 5, 2}, {5, 1, 3}, {1, 4, 1}, {4, 2, 5}, {2, 3, 4}})
	h, order, err := g.RelabelByBFS(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	if order[0] != 0 || order[1] != 5 {
		t.Errorf("BFS order %v", order)
	}
	// Same structure: total weight and degree multiset preserved.
	if h.TotalEdgeWeight() != g.TotalEdgeWeight() || h.M() != g.M() {
		t.Error("relabel changed weights")
	}
	// Weight of edge {0,5} follows the relabeling: new ids 0 and 1.
	if w, ok := h.EdgeWeight(0, 1); !ok || w != 2 {
		t.Errorf("edge weight after relabel: %d,%v", w, ok)
	}
	// Disconnected input is rejected.
	d := MustFromEdges(3, []Edge{{0, 1, 1}})
	if _, _, err := d.RelabelByBFS(0); err == nil {
		t.Error("disconnected graph accepted")
	}
}

func TestRelabelByBFSVertexWeights(t *testing.T) {
	g := MustFromEdges(3, []Edge{{0, 2, 1}, {2, 1, 1}})
	g.MaterializeVWgt()
	g.VWgt = []int64{10, 20, 30}
	h, order, err := g.RelabelByBFS(0)
	if err != nil {
		t.Fatal(err)
	}
	for newID, oldID := range order {
		if h.VWgt[newID] != g.VWgt[oldID] {
			t.Errorf("vwgt mismatch at %d", newID)
		}
	}
}
