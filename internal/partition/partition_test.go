package partition

import (
	"math"
	"testing"

	"mlcg/internal/coarsen"
	"mlcg/internal/graph"
	"mlcg/internal/par"
)

func pathGraph(n int) *graph.Graph {
	var e []graph.Edge
	for i := 0; i < n-1; i++ {
		e = append(e, graph.Edge{U: int32(i), V: int32(i + 1), W: 1})
	}
	return graph.MustFromEdges(n, e)
}

func gridGraph(r, c int) *graph.Graph {
	var e []graph.Edge
	id := func(i, j int) int32 { return int32(i*c + j) }
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if j+1 < c {
				e = append(e, graph.Edge{U: id(i, j), V: id(i, j+1), W: 1})
			}
			if i+1 < r {
				e = append(e, graph.Edge{U: id(i, j), V: id(i+1, j), W: 1})
			}
		}
	}
	return graph.MustFromEdges(r*c, e)
}

// twoClusters returns two dense clusters joined by a single bridge edge —
// the ideal bisection cuts exactly that bridge.
func twoClusters(k int) *graph.Graph {
	var e []graph.Edge
	for c := 0; c < 2; c++ {
		base := int32(c * k)
		for i := int32(0); i < int32(k); i++ {
			for j := i + 1; j < int32(k); j++ {
				e = append(e, graph.Edge{U: base + i, V: base + j, W: 1})
			}
		}
	}
	e = append(e, graph.Edge{U: 0, V: int32(k), W: 1})
	return graph.MustFromEdges(2*k, e)
}

func randGraph(n int, seed uint64) *graph.Graph {
	rng := par.NewRNG(seed)
	var e []graph.Edge
	for i := 0; i < n-1; i++ {
		e = append(e, graph.Edge{U: int32(i), V: int32(i + 1), W: int64(rng.Intn(4) + 1)})
	}
	for i := 0; i < 3*n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			e = append(e, graph.Edge{U: int32(u), V: int32(v), W: int64(rng.Intn(4) + 1)})
		}
	}
	return graph.MustFromEdges(n, e)
}

func TestEdgeCutAndWeights(t *testing.T) {
	g := pathGraph(4)
	part := []int32{0, 0, 1, 1}
	if cut := EdgeCut(g, part); cut != 1 {
		t.Errorf("cut = %d, want 1", cut)
	}
	w := SideWeights(g, part)
	if w[0] != 2 || w[1] != 2 {
		t.Errorf("weights = %v", w)
	}
	if Imbalance(g, part) != 0 {
		t.Errorf("imbalance = %d", Imbalance(g, part))
	}
	if err := CheckBisection(g, part, 0); err != nil {
		t.Error(err)
	}
	if err := CheckBisection(g, []int32{0, 0, 0, 1}, 0); err == nil {
		t.Error("unbalanced bisection accepted")
	}
	if err := CheckBisection(g, []int32{0, 2, 1, 1}, 0); err == nil {
		t.Error("3-way partition accepted as bisection")
	}
	if err := CheckBisection(g, []int32{0, 1}, 0); err == nil {
		t.Error("short part vector accepted")
	}
}

// TestGainOf checks the gains of FM's opening sweep, and the reference
// implementation's gainOf, on a path.
func TestGainOf(t *testing.T) {
	g := pathGraph(3)
	part := []int32{0, 0, 1}
	s := newFMState(g, part)
	// Vertex 0: single internal edge: gain -1. Vertex 1: edge to 0
	// internal (w1), edge to 2 external (w1): gain 0. Vertex 2: single
	// external edge: gain +1.
	for u, want := range []int64{-1, 0, 1} {
		if got := s.exact[u]; got != want {
			t.Errorf("gain(%d) = %d, want %d", u, got, want)
		}
		if got := gainOf(g, part, int32(u)); got != want {
			t.Errorf("reference gain(%d) = %d, want %d", u, got, want)
		}
	}
	if s.cut != 1 {
		t.Errorf("opening cut %d, want 1", s.cut)
	}
}

func TestFiedlerOnPath(t *testing.T) {
	// The Fiedler vector of a path is monotone (a cosine ramp): splitting
	// at its median must cut exactly one edge.
	g := pathGraph(32)
	x, iters := Fiedler(g, nil, 5, FiedlerOptions{MaxIter: 5000, Workers: 1})
	if iters == 0 {
		t.Fatal("no iterations performed")
	}
	part := SplitByVector(g, x)
	if cut := EdgeCut(g, part); cut != 1 {
		t.Errorf("path spectral cut = %d, want 1", cut)
	}
	if Imbalance(g, part) != 0 {
		t.Errorf("imbalance = %d", Imbalance(g, part))
	}
}

func TestFiedlerAgainstExactEigenvalue(t *testing.T) {
	// For the path P_n, lambda_2 = 2(1 - cos(pi/n)). Check the Rayleigh
	// quotient of the computed vector.
	n := 16
	g := pathGraph(n)
	x, _ := Fiedler(g, nil, 7, FiedlerOptions{MaxIter: 20000, Workers: 1})
	// Rayleigh quotient x^T L x / x^T x (x is unit-norm already).
	var num float64
	for u := int32(0); int(u) < n; u++ {
		adj, _ := g.Neighbors(u)
		for _, v := range adj {
			if u < v {
				d := x[u] - x[v]
				num += d * d
			}
		}
	}
	want := 2 * (1 - math.Cos(math.Pi/float64(n)))
	if math.Abs(num-want) > 1e-6 {
		t.Errorf("Rayleigh quotient %v, want lambda_2 = %v", num, want)
	}
}

func TestFiedlerSeparatesClusters(t *testing.T) {
	g := twoClusters(10)
	x, _ := Fiedler(g, nil, 3, FiedlerOptions{MaxIter: 5000, Workers: 2})
	part := SplitByVector(g, x)
	if cut := EdgeCut(g, part); cut != 1 {
		t.Errorf("two-cluster spectral cut = %d, want 1 (the bridge)", cut)
	}
}

func TestFiedlerTinyGraphs(t *testing.T) {
	if x, _ := Fiedler(graph.MustFromEdges(0, nil), nil, 1, FiedlerOptions{}); x != nil {
		t.Error("empty graph should yield nil vector")
	}
	x, _ := Fiedler(graph.MustFromEdges(1, nil), nil, 1, FiedlerOptions{})
	if len(x) != 1 {
		t.Error("singleton graph should yield length-1 vector")
	}
}

func TestSplitByVectorWeighted(t *testing.T) {
	g := pathGraph(4)
	g.MaterializeVWgt()
	g.VWgt = []int64{3, 1, 1, 1}
	part := SplitByVector(g, []float64{0.1, 0.2, 0.3, 0.4})
	// Total 6; prefix {0} weighs 3 == half: best split is after vertex 0.
	if part[0] != 0 || part[1] != 1 || part[2] != 1 || part[3] != 1 {
		t.Errorf("weighted split = %v", part)
	}
}

func TestRefineFMImprovesBadPartition(t *testing.T) {
	// Interleaved assignment on a path is maximally bad; FM must recover
	// something close to the optimal single-edge cut.
	g := pathGraph(64)
	part := make([]int32, 64)
	for i := range part {
		part[i] = int32(i % 2)
	}
	before := EdgeCut(g, part)
	after := RefineFM(g, part, FMOptions{})
	if err := CheckBisection(g, part, 0); err != nil {
		t.Fatal(err)
	}
	if after >= before {
		t.Errorf("FM did not improve: %d -> %d", before, after)
	}
	if after != EdgeCut(g, part) {
		t.Errorf("returned cut %d != recomputed %d", after, EdgeCut(g, part))
	}
	if after > 8 {
		t.Errorf("FM left cut %d on a path (optimal 1)", after)
	}
}

func TestRefineFMNeverWorsens(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		g := randGraph(300, seed)
		part := make([]int32, g.N())
		for i := range part {
			part[i] = int32(i % 2)
		}
		before := EdgeCut(g, part)
		after := RefineFM(g, part, FMOptions{})
		if after > before {
			t.Errorf("seed %d: FM worsened the cut %d -> %d", seed, before, after)
		}
		if err := CheckBisection(g, part, 0); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

func TestRefineFMRestoresBalance(t *testing.T) {
	// Start with everything on one side: FM's forced rebalancing moves
	// must produce a balanced partition.
	g := gridGraph(10, 10)
	part := make([]int32, g.N())
	RefineFM(g, part, FMOptions{})
	if err := CheckBisection(g, part, 0); err != nil {
		t.Fatal(err)
	}
}

func TestRefineFMRespectsVertexWeights(t *testing.T) {
	g := pathGraph(6)
	g.MaterializeVWgt()
	g.VWgt = []int64{5, 1, 1, 1, 1, 1}
	part := []int32{0, 0, 0, 1, 1, 1} // w = [7, 3]
	RefineFM(g, part, FMOptions{})
	if d := Imbalance(g, part); d > 5 {
		t.Errorf("imbalance %d exceeds max vertex weight 5", d)
	}
}

func TestGreedyGrowBalancedAndConnectedRegion(t *testing.T) {
	g := gridGraph(12, 12)
	part := GreedyGrow(g, 9, 4)
	if err := CheckBisection(g, part, 0); err != nil {
		t.Fatal(err)
	}
	// Grown region (side 0) must be connected.
	keep := make([]bool, g.N())
	count := 0
	for v, p := range part {
		if p == 0 {
			keep[v] = true
			count++
		}
	}
	sub, _ := g.InducedSubgraph(keep, par.Exec{})
	if !sub.IsConnected() {
		t.Error("grown region disconnected")
	}
	if count == 0 || count == g.N() {
		t.Errorf("degenerate region size %d", count)
	}
}

func TestGreedyGrowOnClusters(t *testing.T) {
	g := twoClusters(12)
	part := GreedyGrow(g, 11, 8)
	if cut := EdgeCut(g, part); cut != 1 {
		t.Errorf("greedy growing cut = %d, want 1", cut)
	}
}

func TestSpectralBisectorEndToEnd(t *testing.T) {
	g := gridGraph(24, 24)
	b := NewSpectralHEC(3, 2)
	b.Fiedler.MaxIter = 2000
	r, err := b.Bisect(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckBisection(g, r.Part, 0); err != nil {
		t.Fatal(err)
	}
	if r.Cut != EdgeCut(g, r.Part) {
		t.Errorf("reported cut %d != actual %d", r.Cut, EdgeCut(g, r.Part))
	}
	// Optimal straight cut on a 24x24 grid is 24; spectral should land in
	// the same ballpark.
	if r.Cut > 40 {
		t.Errorf("spectral grid cut = %d, want near 24", r.Cut)
	}
	if r.Levels < 1 || r.TotalTime() <= 0 {
		t.Errorf("missing metadata: levels=%d time=%v", r.Levels, r.TotalTime())
	}
}

func TestFMBisectorEndToEnd(t *testing.T) {
	g := gridGraph(24, 24)
	b := NewHECFM(7, 2)
	r, err := b.Bisect(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckBisection(g, r.Part, 0); err != nil {
		t.Fatal(err)
	}
	if r.Cut > 40 {
		t.Errorf("FM grid cut = %d, want near 24", r.Cut)
	}
}

func TestFMBisectorOnClusters(t *testing.T) {
	g := twoClusters(24)
	b := NewHECFM(1, 2)
	r, err := b.Bisect(g)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cut != 1 {
		t.Errorf("cluster cut = %d, want 1", r.Cut)
	}
}

func TestBaselinesProduceValidBisections(t *testing.T) {
	g := randGraph(1500, 3)
	for name, b := range map[string]*FMBisector{
		"metis":   NewMetisLike(5),
		"mtmetis": NewMtMetisLike(5, 2),
		"hecfm":   NewHECFM(5, 2),
	} {
		r, err := b.Bisect(g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := CheckBisection(g, r.Part, 0); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.Cut <= 0 {
			t.Errorf("%s: suspicious zero cut on a random graph", name)
		}
	}
}

func TestFMBeatsOrMatchesSpectralOnGrid(t *testing.T) {
	// Table VI shape: FM refinement produces cuts at least as good as
	// spectral on most instances. Use a fixed grid where both are stable.
	g := gridGraph(20, 20)
	fm, err := NewHECFM(11, 2).Bisect(g)
	if err != nil {
		t.Fatal(err)
	}
	sp := NewSpectralHEC(11, 2)
	sp.Fiedler.MaxIter = 2000
	spr, err := sp.Bisect(g)
	if err != nil {
		t.Fatal(err)
	}
	if float64(fm.Cut) > 1.5*float64(spr.Cut) {
		t.Errorf("FM cut %d much worse than spectral %d", fm.Cut, spr.Cut)
	}
}

func TestSpectralWithDifferentCoarseners(t *testing.T) {
	// Table V varies the coarsening under spectral refinement; all
	// variants must produce valid bisections.
	g := gridGraph(16, 16)
	for _, mname := range []string{"hec", "hem", "twohop", "mis2"} {
		mapper, err := coarsen.MapperByName(mname)
		if err != nil {
			t.Fatal(err)
		}
		b := &SpectralBisector{
			Coarsener: coarsen.Coarsener{Mapper: mapper, Builder: coarsen.BuildSort{}, Seed: 2, Workers: 2},
			Fiedler:   FiedlerOptions{MaxIter: 1500, Workers: 2},
			Seed:      2,
		}
		r, err := b.Bisect(g)
		if err != nil {
			t.Fatalf("%s: %v", mname, err)
		}
		if err := CheckBisection(g, r.Part, 0); err != nil {
			t.Fatalf("%s: %v", mname, err)
		}
	}
}

func TestBisectEmptyGraph(t *testing.T) {
	g := graph.MustFromEdges(0, nil)
	if _, err := NewHECFM(1, 1).Bisect(g); err != nil {
		t.Fatal(err)
	}
	if _, err := NewSpectralHEC(1, 1).Bisect(g); err != nil {
		t.Fatal(err)
	}
}
