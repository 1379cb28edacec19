package graph

import (
	"testing"
	"testing/quick"

	"mlcg/internal/par"
)

// path returns a path graph 0-1-2-...-n-1 with unit weights.
func path(n int) *Graph {
	edges := make([]Edge, 0, n-1)
	for i := 0; i < n-1; i++ {
		edges = append(edges, Edge{int32(i), int32(i + 1), 1})
	}
	return MustFromEdges(n, edges)
}

// star returns a star with center 0 and n-1 leaves.
func star(n int) *Graph {
	edges := make([]Edge, 0, n-1)
	for i := 1; i < n; i++ {
		edges = append(edges, Edge{0, int32(i), 1})
	}
	return MustFromEdges(n, edges)
}

func TestFromEdgesBasics(t *testing.T) {
	g := MustFromEdges(4, []Edge{{0, 1, 2}, {1, 2, 3}, {2, 3, 4}, {3, 0, 5}})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.N() != 4 || g.M() != 4 {
		t.Fatalf("n=%d m=%d, want 4,4", g.N(), g.M())
	}
	if w, ok := g.EdgeWeight(2, 1); !ok || w != 3 {
		t.Errorf("EdgeWeight(2,1) = %d,%v", w, ok)
	}
	if g.HasEdge(0, 2) {
		t.Error("unexpected edge {0,2}")
	}
	if g.TotalEdgeWeight() != 14 {
		t.Errorf("TotalEdgeWeight = %d, want 14", g.TotalEdgeWeight())
	}
	if g.Size() != 12 {
		t.Errorf("Size = %d, want 12", g.Size())
	}
}

func TestFromEdgesMergesDuplicatesAndDropsLoops(t *testing.T) {
	g := MustFromEdges(3, []Edge{{0, 1, 1}, {1, 0, 2}, {0, 0, 9}, {1, 2, 1}})
	if g.M() != 2 {
		t.Fatalf("m = %d, want 2", g.M())
	}
	if w, _ := g.EdgeWeight(0, 1); w != 3 {
		t.Errorf("merged weight = %d, want 3", w)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFromEdgesRejectsBadInput(t *testing.T) {
	if _, err := FromEdges(2, []Edge{{0, 5, 1}}); err == nil {
		t.Error("out-of-range edge accepted")
	}
	if _, err := FromEdges(2, []Edge{{0, 1, 0}}); err == nil {
		t.Error("zero weight accepted")
	}
	if _, err := FromEdges(2, []Edge{{0, 1, -3}}); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := FromEdges(-1, nil); err == nil {
		t.Error("negative n accepted")
	}
}

// TestWeightTotalOverflowRejected pins the int64 bound on the directed
// weight total Σ Wgt. Each edge of the reproducer fits in int64 on its
// own: {0,1} and {2,3} weigh 2^62, the four cross edges between them 2^61,
// and a unit path runs 3-4-...-79. Their total does not fit, so any
// coarsening that merges the two pairs would sum a coarse weight past
// int64. FromEdges and Validate must both reject it, and agree on the
// boundary: a single edge of weight 2^62-1 has directed total 2^63-2 and
// is accepted, one of weight 2^62 is not.
func TestWeightTotalOverflowRejected(t *testing.T) {
	const n = 80
	edges := []Edge{
		{0, 1, 1 << 62}, {2, 3, 1 << 62},
		{0, 2, 1 << 61}, {0, 3, 1 << 61}, {1, 2, 1 << 61}, {1, 3, 1 << 61},
	}
	for i := int32(3); i < n-1; i++ {
		edges = append(edges, Edge{i, i + 1, 1})
	}
	if _, err := FromEdges(n, edges); err == nil {
		t.Error("FromEdges accepted a graph whose weight total overflows int64")
	}
	if err := fromCanonicalEdges(n, edges).Validate(); err == nil {
		t.Error("Validate accepted a graph whose weight total overflows int64")
	}

	const limit = (1<<63 - 1) / 2 // the largest single-edge weight
	for _, tc := range []struct {
		w  int64
		ok bool
	}{{limit, true}, {limit + 1, false}} {
		one := []Edge{{0, 1, tc.w}}
		_, err := FromEdges(2, one)
		if (err == nil) != tc.ok {
			t.Errorf("FromEdges, single edge of weight %d: err = %v, want ok=%v", tc.w, err, tc.ok)
		}
		err = fromCanonicalEdges(2, one).Validate()
		if (err == nil) != tc.ok {
			t.Errorf("Validate, single edge of weight %d: err = %v, want ok=%v", tc.w, err, tc.ok)
		}
	}
}

func TestEmptyAndSingletonGraphs(t *testing.T) {
	g := MustFromEdges(0, nil)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if !g.IsConnected() {
		t.Error("empty graph should count as connected")
	}
	s := MustFromEdges(1, nil)
	if s.Degree(0) != 0 || s.M() != 0 {
		t.Error("singleton graph malformed")
	}
	if s.DegreeSkew() != 0 {
		t.Errorf("skew = %v, want 0", s.DegreeSkew())
	}
}

func TestDegreeStats(t *testing.T) {
	g := star(11)
	if g.MaxDegree() != 10 {
		t.Errorf("MaxDegree = %d, want 10", g.MaxDegree())
	}
	if got := g.AvgDegree(); got < 1.8 || got > 1.82 {
		t.Errorf("AvgDegree = %v, want ~1.818", got)
	}
	if g.DegreeSkew() < 5 {
		t.Errorf("star should be skewed, got %v", g.DegreeSkew())
	}
	p := path(100)
	if p.DegreeSkew() > 1.2 {
		t.Errorf("path should be regular, got %v", p.DegreeSkew())
	}
}

func TestVertexWeights(t *testing.T) {
	g := path(3)
	if g.VertexWeight(0) != 1 || g.TotalVertexWeight() != 3 {
		t.Error("nil VWgt should act as all ones")
	}
	g.MaterializeVWgt()
	g.VWgt[1] = 5
	if g.TotalVertexWeight() != 7 {
		t.Errorf("TotalVertexWeight = %d, want 7", g.TotalVertexWeight())
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	fresh := func() *Graph { return path(4) }

	g := fresh()
	g.Adj[0] = 0 // self-loop at vertex 0
	if g.Validate() == nil {
		t.Error("self-loop not caught")
	}

	g = fresh()
	g.Wgt[0] = -1
	if g.Validate() == nil {
		t.Error("negative weight not caught")
	}

	g = fresh()
	g.Wgt[0] = 2 // asymmetric weight
	if g.Validate() == nil {
		t.Error("asymmetric weight not caught")
	}

	g = fresh()
	g.Xadj[1] = 99
	if g.Validate() == nil {
		t.Error("bad Xadj not caught")
	}

	g = fresh()
	g.VWgt = make([]int64, 2)
	if g.Validate() == nil {
		t.Error("short VWgt not caught")
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := path(5)
	g.MaterializeVWgt()
	h := g.Clone()
	h.Wgt[0] = 99
	h.VWgt[0] = 99
	if g.Wgt[0] == 99 || g.VWgt[0] == 99 {
		t.Error("Clone shares storage")
	}
	if !Equal(g, g.Clone()) {
		t.Error("clone not Equal to original")
	}
}

func TestEqual(t *testing.T) {
	a := MustFromEdges(3, []Edge{{0, 1, 1}, {1, 2, 2}})
	b := MustFromEdges(3, []Edge{{1, 0, 1}, {2, 1, 2}})
	if !Equal(a, b) {
		t.Error("isomorphic-identical graphs not Equal")
	}
	c := MustFromEdges(3, []Edge{{0, 1, 1}, {1, 2, 3}})
	if Equal(a, c) {
		t.Error("different weights reported Equal")
	}
	d := MustFromEdges(3, []Edge{{0, 1, 1}, {0, 2, 2}})
	if Equal(a, d) {
		t.Error("different structure reported Equal")
	}
	// Equal must handle unsorted adjacency produced by hash construction.
	e := a.Clone()
	adj, wgt := e.Neighbors(1)
	adj[0], adj[1] = adj[1], adj[0]
	wgt[0], wgt[1] = wgt[1], wgt[0]
	if !Equal(a, e) {
		t.Error("Equal is order-sensitive")
	}
}

func TestBFS(t *testing.T) {
	g := path(5)
	dist, order := g.BFS(0)
	for i := 0; i < 5; i++ {
		if dist[i] != int32(i) {
			t.Errorf("dist[%d] = %d, want %d", i, dist[i], i)
		}
	}
	if len(order) != 5 || order[0] != 0 {
		t.Errorf("bad BFS order %v", order)
	}
	dist, _ = g.BFS(2)
	if dist[0] != 2 || dist[4] != 2 {
		t.Errorf("BFS from middle wrong: %v", dist)
	}
}

func TestConnectedComponents(t *testing.T) {
	// Two components: a triangle and an edge.
	g := MustFromEdges(5, []Edge{{0, 1, 1}, {1, 2, 1}, {2, 0, 1}, {3, 4, 1}})
	comp, k := g.ConnectedComponents()
	if k != 2 {
		t.Fatalf("k = %d, want 2", k)
	}
	if comp[0] != comp[1] || comp[0] != comp[2] || comp[3] != comp[4] || comp[0] == comp[3] {
		t.Errorf("bad component labels %v", comp)
	}
	if g.IsConnected() {
		t.Error("disconnected graph reported connected")
	}
	if !path(10).IsConnected() {
		t.Error("path reported disconnected")
	}
}

func TestLargestComponent(t *testing.T) {
	// Big component: path 0..5 (6 vertices); small: edge {6,7}; isolated 8.
	edges := []Edge{{6, 7, 3}}
	for i := 0; i < 5; i++ {
		edges = append(edges, Edge{int32(i), int32(i + 1), int64(i + 1)})
	}
	g := MustFromEdges(9, edges)
	lcc, oldID := g.LargestComponent()
	if lcc.N() != 6 || lcc.M() != 5 {
		t.Fatalf("lcc n=%d m=%d, want 6,5", lcc.N(), lcc.M())
	}
	if err := lcc.Validate(); err != nil {
		t.Fatal(err)
	}
	for newV, oldV := range oldID {
		if int32(newV) != oldV { // the path occupies ids 0..5 already
			t.Errorf("oldID[%d] = %d", newV, oldV)
		}
	}
	// Weights preserved through relabeling.
	if w, _ := lcc.EdgeWeight(3, 4); w != 4 {
		t.Errorf("weight lost in extraction: %d", w)
	}
	// Connected input returns the same graph.
	p := path(4)
	same, ids := p.LargestComponent()
	if same != p || ids != nil {
		t.Error("connected graph should be returned unchanged")
	}
}

func TestInducedSubgraphVertexWeights(t *testing.T) {
	g := path(4)
	g.MaterializeVWgt()
	g.VWgt[2] = 7
	keep := []bool{false, true, true, true}
	sub, oldID := g.InducedSubgraph(keep, par.Exec{})
	if sub.N() != 3 || sub.M() != 2 {
		t.Fatalf("sub n=%d m=%d", sub.N(), sub.M())
	}
	if sub.VWgt[1] != 7 {
		t.Errorf("vertex weight not carried: %v (oldID %v)", sub.VWgt, oldID)
	}
}

func TestSortAdjacencyCanonicalizes(t *testing.T) {
	g := path(50)
	// Scramble one list.
	adj, wgt := g.Neighbors(25)
	adj[0], adj[1] = adj[1], adj[0]
	wgt[0], wgt[1] = wgt[1], wgt[0]
	g.SortAdjacency(4)
	adj, _ = g.Neighbors(25)
	if adj[0] != 24 || adj[1] != 26 {
		t.Errorf("adjacency not sorted: %v", adj)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestComputeStats(t *testing.T) {
	g := star(5)
	s := g.ComputeStats()
	if s.N != 5 || s.M != 4 || s.MaxDeg != 4 || s.Weighted {
		t.Errorf("bad stats %+v", s)
	}
	h := MustFromEdges(2, []Edge{{0, 1, 7}})
	if !h.ComputeStats().Weighted {
		t.Error("weighted graph not flagged")
	}
}

// randomGraphFromSeed builds a small random graph deterministically; used
// by the property tests.
func randomGraphFromSeed(seed uint64, n int) *Graph {
	if n < 2 {
		n = 2
	}
	rng := par.NewRNG(seed)
	var edges []Edge
	// Spanning path keeps it connected, then extra random edges.
	for i := 0; i < n-1; i++ {
		edges = append(edges, Edge{int32(i), int32(i + 1), int64(rng.Intn(9) + 1)})
	}
	for i := 0; i < n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			edges = append(edges, Edge{int32(u), int32(v), int64(rng.Intn(9) + 1)})
		}
	}
	return MustFromEdges(n, edges)
}

func TestQuickBuiltGraphsAlwaysValid(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		g := randomGraphFromSeed(seed, int(nRaw%64)+2)
		return g.Validate() == nil && g.IsConnected()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickHandshake(t *testing.T) {
	// Sum of degrees is exactly 2m for every built graph.
	f := func(seed uint64, nRaw uint8) bool {
		g := randomGraphFromSeed(seed, int(nRaw%64)+2)
		var degSum int64
		for u := int32(0); u < g.NumV; u++ {
			degSum += g.Degree(u)
		}
		return degSum == 2*g.M()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
