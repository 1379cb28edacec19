package partition

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"mlcg/internal/coarsen"
	"mlcg/internal/gen"
	"mlcg/internal/graph"
	"mlcg/internal/obs"
	"mlcg/internal/par"
)

// fmCase is one graph of the RefineFM reference comparison.
type fmCase struct {
	name string
	g    *graph.Graph
}

// fmOracleCases covers the inputs the multilevel pipeline refines and the
// degenerate ones: every level of HEC hierarchies of three skewed graphs
// and a mesh (unit-weight finest levels, weighted coarse levels), an edgeless
// graph, a single vertex, a graph of heavy and light vertices on which the
// balance test rejects candidates and passes stop early, and a path with
// one 2^40 edge.
func fmOracleCases(t testing.TB) []fmCase {
	t.Helper()
	var cases []fmCase
	for _, in := range []fmCase{
		{"ba", gen.BA(5000, 3, 5)},
		{"rmat", gen.RMAT(12, 8, 1)},
		{"web", gen.WebLike(6000, 2)},
		{"trimesh", gen.TriMesh(50, 50, 2)},
	} {
		c := coarsen.Coarsener{Mapper: coarsen.HEC{}, Builder: coarsen.BuildSort{}, Seed: 3, Workers: 1}
		h, err := c.Run(in.g)
		if err != nil {
			t.Fatal(err)
		}
		for i, g := range h.Graphs {
			cases = append(cases, fmCase{fmt.Sprintf("%s-level%d", in.name, i), g})
		}
	}
	return append(cases,
		fmCase{"edgeless", graph.MustFromEdges(9, nil)},
		fmCase{"single-vertex", graph.MustFromEdges(1, nil)},
		fmCase{"heavy-vertices", heavyVertexGraph(400, 7)},
		fmCase{"huge-edge", hugeEdgePath(80)},
	)
}

// heavyVertexGraph is a weighted random graph in which every eighth vertex
// weighs 40 and the others 1–3.
func heavyVertexGraph(n int, seed uint64) *graph.Graph {
	g := randGraph(n, seed)
	g.VWgt = make([]int64, n)
	for u := range g.VWgt {
		g.VWgt[u] = int64(par.Mix64(seed+uint64(u))%3) + 1
		if u%8 == 0 {
			g.VWgt[u] = 40
		}
	}
	return g
}

// fmStarts returns the partitions each case is refined from: greedy graph
// growing (what the pipeline refines at the coarsest level), every vertex
// on side 0 (a start only forced moves can repair), and, on graphs small
// enough for the reference to finish quickly, a pseudo-random split.
func fmStarts(g *graph.Graph) map[string][]int32 {
	n := g.N()
	starts := map[string][]int32{
		"ggg":      GreedyGrowTarget(g, 11, 4, 0),
		"one-side": make([]int32, n),
	}
	if n <= 3000 {
		random := make([]int32, n)
		for u := range random {
			random[u] = int32(par.Mix64(uint64(u)^0xf00d) & 1)
		}
		starts["random"] = random
	}
	return starts
}

// fmOptionSets: the defaults, one and three passes, a one-third target
// and a fixed tolerance.
func fmOptionSets(g *graph.Graph) []FMOptions {
	return []FMOptions{
		{},
		{MaxPasses: 1},
		{MaxPasses: 3},
		{TargetW0: g.TotalVertexWeight() / 3},
		{Tol: 5},
	}
}

// fmCounts runs RefineFM under a trace and returns its cut and its
// fm_passes and fm_moves counters.
func fmCounts(g *graph.Graph, part []int32, opt FMOptions) (cut, passes, moves int64) {
	tr := obs.StartTrace("fm-test")
	cut = RefineFM(g, part, opt)
	tr.Stop()
	c := tr.Root.CounterTotals()
	return cut, c[obs.CtrFMPasses], c[obs.CtrFMMoves]
}

// TestRefineFMMatchesReference pins RefineFM to the per-pass implementation
// it replaced: the same part vector and the same returned cut for every
// case, start and option set, on both gain stores.
func TestRefineFMMatchesReference(t *testing.T) {
	weighted, early, stores := 0, map[string]int{}, map[bool]int{}
	for _, fc := range fmOracleCases(t) {
		if fc.g.VWgt != nil {
			weighted++
		}
		for start, part0 := range fmStarts(fc.g) {
			stores[newFMState(fc.g, part0).sparse]++
			for _, opt := range fmOptionSets(fc.g) {
				want := slices.Clone(part0)
				wantCut := refineFMRef(fc.g, want, opt)
				got := slices.Clone(part0)
				cut, passes, moves := fmCounts(fc.g, got, opt)
				if cut != wantCut {
					t.Fatalf("%s/%s/%+v: cut %d, reference %d", fc.name, start, opt, cut, wantCut)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s/%s/%+v: part vectors differ", fc.name, start, opt)
				}
				if moves < passes*int64(fc.g.N()) {
					early[fc.name]++
				}
			}
		}
	}
	if weighted < 2 || early["heavy-vertices"] == 0 {
		t.Errorf("coverage: %d weighted graphs, %d heavy-vertex runs with a pass that stopped early; want ≥ 2 and > 0",
			weighted, early["heavy-vertices"])
	}
	if stores[false] == 0 || stores[true] == 0 {
		t.Errorf("coverage: %d starts refined on the dense store, %d on the sparse one; want both",
			stores[false], stores[true])
	}
}

// FuzzRefineFMMatchesReference compares RefineFM with the reference on
// small random graphs: up to 40 vertices, edge weights 1–4 or, when bit 2
// of data[1] is set, 1–2^40 (which selects the sparse gain store), vertex
// weights 1–8, a random start and random options.
func FuzzRefineFMMatchesReference(f *testing.F) {
	f.Add([]byte{12, 0, 0, 5, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 0}, uint64(1))
	f.Add([]byte{30, 1, 3, 0, 7, 2, 1, 9, 4, 2, 13, 20, 3, 5, 6, 0}, uint64(2))
	f.Add([]byte{6, 2, 1, 2, 0, 1, 3}, uint64(3))
	f.Add([]byte{40, 3, 4, 1}, uint64(4))
	f.Add([]byte{16, 4, 0, 2, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 0, 4, 5, 9, 5, 6, 7, 6, 7, 1}, uint64(5))
	f.Add([]byte{24, 7, 2, 1, 7, 2, 1, 9, 4, 2, 13, 20, 3, 5, 6, 0, 11, 12, 5}, uint64(6))
	f.Fuzz(func(t *testing.T, data []byte, seed uint64) {
		if len(data) < 4 {
			return
		}
		n := int(data[0])%40 + 1
		var edges []graph.Edge
		for i := 4; i+2 < len(data); i += 3 {
			w := int64(data[i+2]%4) + 1
			if data[1]&4 != 0 {
				w = int64(par.Mix64(seed^uint64(i))>>24) + 1
			}
			edges = append(edges, graph.Edge{U: int32(int(data[i]) % n), V: int32(int(data[i+1]) % n), W: w})
		}
		g := graph.MustFromEdges(n, edges)
		if data[1]%2 == 1 {
			g.VWgt = make([]int64, n)
			for u := range g.VWgt {
				g.VWgt[u] = int64(par.Mix64(seed+uint64(u))%8) + 1
			}
		}
		opt := FMOptions{MaxPasses: int(data[2] % 5), Tol: int64(data[3] % 4)}
		if data[1]&2 != 0 {
			opt.TargetW0 = g.TotalVertexWeight() * int64(data[1]%5+1) / 7
		}
		part := make([]int32, n)
		for u := range part {
			part[u] = int32(par.Mix64(seed^uint64(u)*0x9e37) & 1)
		}
		want := slices.Clone(part)
		wantCut := refineFMRef(g, want, opt)
		if cut := RefineFM(g, part, opt); cut != wantCut {
			t.Fatalf("cut %d, reference %d", cut, wantCut)
		}
		if !slices.Equal(part, want) {
			t.Fatalf("part %v, reference %v", part, want)
		}
	})
}

// TestFMCarriedGainsExact checks the state against a recomputation from
// scratch — every gain (gainOf), the cut, the side weights and the largest
// vertex weight — after the opening sweep and after every improving pass.
func TestFMCarriedGainsExact(t *testing.T) {
	for _, g := range []*graph.Graph{gridGraph(20, 20), heavyVertexGraph(300, 3)} {
		part := make([]int32, g.N())
		for u := range part {
			part[u] = int32(par.Mix64(uint64(u)^5) & 1)
		}
		s := newFMState(g, part)
		if want := fmTol(g, 0); s.maxVW != want {
			t.Errorf("n=%d: max vertex weight %d, want %d", g.N(), s.maxVW, want)
		}
		check := func(pass int) {
			t.Helper()
			for u := int32(0); u < g.NumV; u++ {
				if want := gainOf(g, part, u); s.exact[u] != want {
					t.Fatalf("n=%d after pass %d: gain(%d) = %d, want %d", g.N(), pass, u, s.exact[u], want)
				}
			}
			if want := EdgeCut(g, part); s.cut != want {
				t.Fatalf("n=%d after pass %d: cut %d, want %d", g.N(), pass, s.cut, want)
			}
			if want := SideWeights(g, part); s.w != want {
				t.Fatalf("n=%d after pass %d: side weights %v, want %v", g.N(), pass, s.w, want)
			}
		}
		check(0)
		improving := 0
		for s.pass(s.maxVW, g.TotalVertexWeight()/2) {
			improving++
			check(improving)
		}
		if improving < 2 {
			t.Errorf("n=%d: %d improving passes, want at least 2", g.N(), improving)
		}
	}
}

// TestFMCounters checks the refinement telemetry. On the path 0-1-2-3
// split [0,1,0,1] (cut 3), the first pass moves all four vertices — 2 (gain
// 2), then 1 (forced, gain 0), then 0 and 3 — and keeps the first two
// (cut 1); the second pass moves all four again and keeps none, so the
// counts are 2 passes, 8 moves and 6 rollbacks. Through the multilevel
// pipeline each refinement opens one fm span, and the counts are the same
// at every worker count.
func TestFMCounters(t *testing.T) {
	part := []int32{0, 1, 0, 1}
	tr := obs.StartTrace("test")
	cut := RefineFM(pathGraph(4), part, FMOptions{})
	tr.Stop()
	if cut != 1 || !slices.Equal(part, []int32{0, 0, 1, 1}) {
		t.Fatalf("cut %d, part %v; want 1, [0 0 1 1]", cut, part)
	}
	spans := tr.Root.Children()
	if len(spans) != 1 || spans[0].Name() != "fm" {
		t.Fatalf("want one fm span, got %d", len(spans))
	}
	got := spans[0].Counters()
	for name, want := range map[string]int64{"fm_passes": 2, "fm_moves": 8, "fm_rollbacks": 6} {
		if got[name] != want {
			t.Errorf("%s = %d, want %d", name, got[name], want)
		}
	}

	g := gen.BA(3000, 3, 4)
	var want []int64
	for _, p := range oracleWorkers {
		tr := obs.StartTrace("test")
		res, err := NewHECFM(5, p).Bisect(g)
		tr.Stop()
		if err != nil {
			t.Fatal(err)
		}
		fmSpans := 0
		var walk func(s *obs.Span)
		walk = func(s *obs.Span) {
			if s.Name() == "fm" {
				fmSpans++
			}
			for _, c := range s.Children() {
				walk(c)
			}
		}
		walk(tr.Root)
		if fmSpans != res.Levels+1 {
			t.Errorf("p=%d: %d fm spans, want one per hierarchy graph (%d)", p, fmSpans, res.Levels+1)
		}
		c := tr.Root.CounterTotals()
		counts := []int64{c[obs.CtrFMPasses], c[obs.CtrFMMoves], c[obs.CtrFMRollbacks]}
		if counts[0] == 0 || counts[1] == 0 {
			t.Fatalf("p=%d: counters %v", p, counts)
		}
		if want == nil {
			want = counts
		} else if !slices.Equal(counts, want) {
			t.Errorf("p=%d: passes/moves/rollbacks %v, %v at p=1", p, counts, want)
		}
	}
}

// TestFMPassEndsAfterCutRaisingMoves pins the early exit on two disjoint
// 200-vertex cliques split clique by clique. The start has cut 0 and
// every move raises the cut, so the one pass ends after
// fmPassLimit(400) = min(max(4, 15), 100) = 15 moves and rolls all of them
// back, where a full pass would make 400.
func TestFMPassEndsAfterCutRaisingMoves(t *testing.T) {
	const k = 200
	var e []graph.Edge
	for c := int32(0); c < 2; c++ {
		for i := int32(0); i < k; i++ {
			for j := i + 1; j < k; j++ {
				e = append(e, graph.Edge{U: c*k + i, V: c*k + j, W: 1})
			}
		}
	}
	g := graph.MustFromEdges(2*k, e)
	part := make([]int32, 2*k)
	for u := k; u < 2*k; u++ {
		part[u] = 1
	}
	want := slices.Clone(part)
	tr := obs.StartTrace("test")
	cut := RefineFM(g, part, FMOptions{})
	tr.Stop()
	if cut != 0 || !slices.Equal(part, want) {
		t.Errorf("cut %d, parts changed: %v; want cut 0 and the start kept", cut, !slices.Equal(part, want))
	}
	c := tr.Root.CounterTotals()
	for ctr, n := range map[obs.Counter]int64{obs.CtrFMPasses: 1, obs.CtrFMMoves: 15, obs.CtrFMRollbacks: 15} {
		if c[ctr] != n {
			t.Errorf("%s = %d, want %d", ctr, c[ctr], n)
		}
	}
}

// TestRefineFMAllocsIndependentOfPasses pins RefineFM's allocations to its
// set-up: a pass allocates nothing, so a run stopped after one pass
// allocates exactly what a run of five passes (four of them improving)
// does. The grid with one 2^40 edge runs on the sparse store, the others
// on the dense one.
func TestRefineFMAllocsIndependentOfPasses(t *testing.T) {
	for _, g := range []*graph.Graph{gridGraph(40, 40), heavyVertexGraph(800, 6), withHeavyEdge(gridGraph(40, 40), 0, 1)} {
		part0 := make([]int32, g.N())
		for u := range part0 {
			part0[u] = int32(par.Mix64(uint64(u)^9) & 1)
		}
		part := make([]int32, g.N())
		if _, passes, _ := fmCounts(g, slices.Clone(part0), FMOptions{MaxPasses: 5}); passes != 5 {
			t.Fatalf("n=%d: %d passes, want 5 (four improving)", g.N(), passes)
		}
		allocs := func(opt FMOptions) float64 {
			// A collection that starts mid-measurement adds the runtime's
			// own mallocs to the count, so start from a fresh cycle.
			runtime.GC()
			return testing.AllocsPerRun(5, func() {
				copy(part, part0)
				RefineFM(g, part, opt)
			})
		}
		if one, five := allocs(FMOptions{MaxPasses: 1}), allocs(FMOptions{MaxPasses: 5}); one != five {
			t.Errorf("n=%d: %v allocs for one pass, %v for five", g.N(), one, five)
		}
	}
}

// TestFMBisectorReportsExactCut: Result.Cut is the last refinement's
// returned cut, which must equal the cut of Result.Part, including on a
// graph too small to coarsen.
func TestFMBisectorReportsExactCut(t *testing.T) {
	for _, g := range []*graph.Graph{gen.BA(2000, 4, 6), gridGraph(24, 24), pathGraph(5)} {
		res, err := NewHECFM(3, 2).Bisect(g)
		if err != nil {
			t.Fatal(err)
		}
		if want := EdgeCut(g, res.Part); res.Cut != want {
			t.Errorf("n=%d: reported cut %d, actual %d", g.N(), res.Cut, want)
		}
	}
}

// fmDeterminismGraphs are the skewed-degree inputs of the worker-count
// determinism checks.
func fmDeterminismGraphs() []fmCase {
	return []fmCase{
		{"ba", gen.BA(2500, 4, 1)},
		{"rmat", gen.RMAT(11, 8, 2)},
		{"web", gen.WebLike(2500, 3)},
	}
}

// TestFMBisectDeterminismAcrossWorkers pins multilevel FM bisection to the
// worker-count determinism contract: the same partition and cut at
// p = 1, 2, 4, 8.
func TestFMBisectDeterminismAcrossWorkers(t *testing.T) {
	for _, in := range fmDeterminismGraphs() {
		var want *Result
		for _, p := range oracleWorkers {
			res, err := NewHECFM(7, p).Bisect(in.g)
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = res
				continue
			}
			if res.Cut != want.Cut || !slices.Equal(res.Part, want.Part) {
				t.Fatalf("%s: p=%d gives cut %d, p=1 cut %d (or the parts differ)", in.name, p, res.Cut, want.Cut)
			}
		}
	}
}

// TestKWayFMDeterminismAcrossWorkers is the same pin for recursive k-way
// FM.
func TestKWayFMDeterminismAcrossWorkers(t *testing.T) {
	for _, in := range fmDeterminismGraphs() {
		for _, k := range []int{4, 8} {
			var want *KWayResult
			for _, p := range oracleWorkers {
				res, err := KWayFM(in.g, k, KWayOptions{Seed: 3, Workers: p})
				if err != nil {
					t.Fatal(err)
				}
				if want == nil {
					want = res
					continue
				}
				if res.Cut != want.Cut || !slices.Equal(res.Part, want.Part) {
					t.Fatalf("%s k=%d: p=%d gives cut %d, p=1 cut %d (or the parts differ)",
						in.name, k, p, res.Cut, want.Cut)
				}
			}
		}
	}
}

// withHeavyEdge gives g's edge {u, v} the weight 2^40, in both directions,
// and returns g.
func withHeavyEdge(g *graph.Graph, u, v int32) *graph.Graph {
	for _, e := range [][2]int32{{u, v}, {v, u}} {
		adj, wgt := g.Neighbors(e[0])
		wgt[slices.Index(adj, e[1])] = 1 << 40
	}
	return g
}

// hugeEdgePath is an n-vertex unit path whose edge {n/2, n/2+1} weighs
// 2^40: a valid graph whose weighted degree, and so the dense store's
// 2·(2·maxWdeg+1) bucket heads, is far above n.
func hugeEdgePath(n int) *graph.Graph {
	return withHeavyEdge(pathGraph(n), int32(n/2), int32(n/2+1))
}

// TestFMHugeEdgeWeight checks FM's exact invariants on an 80-vertex path
// with one 2^40 edge through RefineFM, FMBisector and KWayFM at k = 4:
// from a balanced start the cut never rises, every returned cut equals the
// cut of the returned parts, and balance stays within tolerance. A store
// sized by the weighted degree asks for 2^42 bucket heads here, so the
// test binary died of it.
func TestFMHugeEdgeWeight(t *testing.T) {
	g := hugeEdgePath(80)
	alternating, halves := make([]int32, g.N()), make([]int32, g.N())
	for u := range alternating {
		alternating[u] = int32(u % 2)
		halves[u] = int32(2 * u / g.N())
	}
	for name, part := range map[string][]int32{"alternating": alternating, "halves": halves} {
		before := EdgeCut(g, part)
		cut := RefineFM(g, part, FMOptions{})
		if cut > before || cut != EdgeCut(g, part) {
			t.Errorf("%s: cut %d -> %d, parts cut %d", name, before, cut, EdgeCut(g, part))
		}
		if err := CheckBisection(g, part, 0); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}

	res, err := NewHECFM(3, 2).Bisect(g)
	if err != nil {
		t.Fatal(err)
	}
	if want := EdgeCut(g, res.Part); res.Cut != want || res.Cut >= 1<<40 {
		t.Errorf("FMBisector: cut %d, parts cut %d; want equal and the heavy edge uncut", res.Cut, want)
	}
	if err := CheckBisection(g, res.Part, 0); err != nil {
		t.Errorf("FMBisector: %v", err)
	}

	kres, err := KWayFM(g, 4, KWayOptions{Seed: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if want := KWayEdgeCut(g, kres.Part); kres.Cut != want || kres.Cut >= 1<<40 {
		t.Errorf("KWayFM: cut %d, parts cut %d; want equal and the heavy edge uncut", kres.Cut, want)
	}
	for p, w := range kres.Weights {
		if w < 19 || w > 21 {
			t.Errorf("KWayFM: part %d weighs %d, want 20 ± 1 (weights %v)", p, w, kres.Weights)
		}
	}
}
