package coarsen

import (
	"testing"
	"testing/quick"

	"mlcg/internal/graph"
	"mlcg/internal/par"
)

func allBuilders(t *testing.T) []Builder {
	t.Helper()
	var out []Builder
	for _, name := range BuilderNames() {
		b, err := BuilderByName(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

// intraWeight sums the weight of fine edges whose endpoints share an
// aggregate (counting each undirected edge once).
func intraWeight(g *graph.Graph, m *Mapping) int64 {
	var w int64
	for u := int32(0); u < g.NumV; u++ {
		adj, wgt := g.Neighbors(u)
		for k, v := range adj {
			if u < v && m.M[u] == m.M[v] {
				w += wgt[k]
			}
		}
	}
	return w
}

func TestBuildersAgreeAndConserve(t *testing.T) {
	builders := allBuilders(t)
	mappers := allMappers(t)
	for gname, g := range testGraphs() {
		g.MaterializeVWgt()
		for _, mapper := range mappers {
			m, err := mapper.Map(g, 77, par.Exec{P: 2})
			if err != nil {
				t.Fatal(err)
			}
			var ref *graph.Graph
			for _, b := range builders {
				cg, err := b.Build(g, m, par.Exec{P: 2})
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", gname, mapper.Name(), b.Name(), err)
				}
				cg.SortAdjacency(1)
				if err := cg.Validate(); err != nil {
					t.Fatalf("%s/%s/%s: invalid coarse graph: %v", gname, mapper.Name(), b.Name(), err)
				}
				if err := checkCoarse(g, cg, m); err != nil {
					t.Fatalf("%s/%s/%s: %v", gname, mapper.Name(), b.Name(), err)
				}
				// Edge weight conservation: coarse total = fine total - intra.
				want := g.TotalEdgeWeight() - intraWeight(g, m)
				if got := cg.TotalEdgeWeight(); got != want {
					t.Fatalf("%s/%s/%s: edge weight %d, want %d", gname, mapper.Name(), b.Name(), got, want)
				}
				if ref == nil {
					ref = cg
				} else if !graph.Equal(ref, cg) {
					t.Fatalf("%s/%s: builder %s disagrees with %s", gname, mapper.Name(), b.Name(), builders[0].Name())
				}
			}
		}
	}
}

func TestBuildSortOneSidedMatchesBothSided(t *testing.T) {
	// The degree-based optimization must not change the output graph: the
	// forced one-sided path of every dedup kernel, sorted, equals the
	// both-sided sort build.
	kernels := []struct {
		name  string
		dedup dedupFunc
	}{
		{"sort", dedupSortSegments},
		{"hash", dedupHashSegments},
		{"segsort", dedupSegmentedSort},
	}
	for gname, g := range testGraphs() {
		m, err := HEC{}.Map(g, 5, par.Exec{P: 2})
		if err != nil {
			t.Fatal(err)
		}
		plain, err := BuildSort{OneSided: OneSidedOff}.Build(g, m, par.Exec{P: 2})
		if err != nil {
			t.Fatal(err)
		}
		forced, err := BuildSort{OneSided: OneSidedOn}.Build(g, m, par.Exec{P: 2})
		if err != nil {
			t.Fatal(err)
		}
		if !graph.Equal(plain, forced) {
			t.Errorf("%s: BuildSort{OneSided: OneSidedOn} output differs from both-sided", gname)
		}
		for _, k := range kernels {
			cg, err := buildVertexCentric(NewWorkspace(), g, m, par.Exec{P: 2}, true, k.dedup)
			if err != nil {
				t.Fatal(err)
			}
			cg.SortAdjacency(1)
			if !graph.Equal(plain, cg) {
				t.Errorf("%s: one-sided %s output differs from both-sided", gname, k.name)
			}
		}
	}
}

func TestBuildAggregatesVertexWeights(t *testing.T) {
	g := graph.MustFromEdges(4, []graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 2, V: 3, W: 1},
	})
	g.MaterializeVWgt()
	g.VWgt = []int64{1, 2, 3, 4}
	m := &Mapping{M: []int32{0, 0, 1, 1}, NC: 2}
	for _, b := range allBuilders(t) {
		cg, err := b.Build(g, m, par.Exec{P: 1})
		if err != nil {
			t.Fatal(err)
		}
		if cg.VWgt[0] != 3 || cg.VWgt[1] != 7 {
			t.Errorf("%s: VWgt = %v, want [3 7]", b.Name(), cg.VWgt)
		}
		if w, ok := cg.EdgeWeight(0, 1); !ok || w != 1 {
			t.Errorf("%s: coarse edge weight %d,%v", b.Name(), w, ok)
		}
	}
}

func TestBuildMergesParallelCoarseEdges(t *testing.T) {
	// K4 mapped to 2 aggregates: the four cross edges merge into one
	// coarse edge with summed weight.
	var e []graph.Edge
	w := int64(1)
	for i := int32(0); i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			e = append(e, graph.Edge{U: i, V: j, W: w})
			w++
		}
	}
	g := graph.MustFromEdges(4, e)
	m := &Mapping{M: []int32{0, 0, 1, 1}, NC: 2}
	// Cross edges: (0,2)=2, (0,3)=3, (1,2)=4, (1,3)=5 => 14.
	for _, b := range allBuilders(t) {
		cg, err := b.Build(g, m, par.Exec{P: 1})
		if err != nil {
			t.Fatal(err)
		}
		if cg.M() != 1 {
			t.Errorf("%s: coarse m = %d, want 1", b.Name(), cg.M())
		}
		if got, _ := cg.EdgeWeight(0, 1); got != 14 {
			t.Errorf("%s: merged weight = %d, want 14", b.Name(), got)
		}
	}
}

func TestBuildSpGEMMRejectsInexactWeights(t *testing.T) {
	// The path 0-1 (1), 1-2 (w), 2-3 (1) under {0,0,1,1} has one coarse
	// edge of weight w. SpGEMM accumulates in float64, so it must return
	// w exactly below 2^53 and an error at 2^53+1, where the integer
	// builders still return the exact weight and float64 would round it.
	m := &Mapping{M: []int32{0, 0, 1, 1}, NC: 2}
	for _, w := range []int64{1<<53 - 1, 1<<53 + 1} {
		g := graph.MustFromEdges(4, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: w}, {U: 2, V: 3, W: 1}})
		for _, b := range allBuilders(t) {
			cg, err := b.Build(g, m, par.Exec{P: 1})
			if b.Name() == "spgemm" && w >= 1<<53 {
				if err == nil {
					t.Errorf("spgemm returned weights %v for coarse weight %d, want an error", cg.Wgt, w)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s, weight %d: %v", b.Name(), w, err)
			}
			if got, _ := cg.EdgeWeight(0, 1); got != w {
				t.Errorf("%s: coarse weight %d, want %d", b.Name(), got, w)
			}
		}
	}
}

func TestBuildIdentityMapping(t *testing.T) {
	// The identity mapping must reproduce the input graph exactly.
	g := testGraphs()["rand200"]
	n := g.N()
	m := &Mapping{M: make([]int32, n), NC: int32(n)}
	for i := range m.M {
		m.M[i] = int32(i)
	}
	for _, b := range allBuilders(t) {
		cg, err := b.Build(g, m, par.Exec{P: 3})
		if err != nil {
			t.Fatal(err)
		}
		cg.SortAdjacency(1)
		want := g.Clone()
		want.MaterializeVWgt()
		if !graph.Equal(want, cg) {
			t.Errorf("%s: identity mapping changed the graph", b.Name())
		}
	}
}

func TestBuildAllToOneMapping(t *testing.T) {
	// Mapping everything to one aggregate yields the 1-vertex empty graph.
	g := testGraphs()["grid8x9"]
	m := &Mapping{M: make([]int32, g.N()), NC: 1}
	for _, b := range allBuilders(t) {
		cg, err := b.Build(g, m, par.Exec{P: 2})
		if err != nil {
			t.Fatal(err)
		}
		if cg.N() != 1 || cg.M() != 0 {
			t.Errorf("%s: got n=%d m=%d, want 1,0", b.Name(), cg.N(), cg.M())
		}
		if cg.VWgt[0] != int64(g.N()) {
			t.Errorf("%s: vwgt = %d, want %d", b.Name(), cg.VWgt[0], g.N())
		}
	}
}

func TestBuildRejectsInvalidMapping(t *testing.T) {
	g := testGraphs()["triangle"]
	bad := &Mapping{M: []int32{0, 5, 0}, NC: 2}
	for _, b := range allBuilders(t) {
		if _, err := b.Build(g, bad, par.Exec{P: 1}); err == nil {
			t.Errorf("%s accepted an invalid mapping", b.Name())
		}
	}
}

func TestQuickBuildersEquivalent(t *testing.T) {
	builders := allBuilders(t)
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%60) + 4
		rng := par.NewRNG(seed)
		var e []graph.Edge
		for i := 0; i < n-1; i++ {
			e = append(e, graph.Edge{U: int32(i), V: int32(i + 1), W: int64(rng.Intn(7) + 1)})
		}
		for i := 0; i < 2*n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				e = append(e, graph.Edge{U: int32(u), V: int32(v), W: int64(rng.Intn(7) + 1)})
			}
		}
		g := graph.MustFromEdges(n, e)
		// Random (not algorithmic) mapping with nc aggregates, made
		// compact by construction: assign each vertex rng.Intn(nc), then
		// compact unused ids.
		raw := make([]int32, n)
		k := rng.Intn(n-1) + 1
		for i := range raw {
			raw[i] = int32(rng.Intn(k))
		}
		remap := make([]int32, k)
		for i := range remap {
			remap[i] = -1
		}
		var nc int32
		for _, a := range raw {
			if remap[a] == -1 {
				remap[a] = nc
				nc++
			}
		}
		m := &Mapping{M: make([]int32, n), NC: nc}
		for i, a := range raw {
			m.M[i] = remap[a]
		}
		var ref *graph.Graph
		for _, b := range builders {
			cg, err := b.Build(g, m, par.Exec{P: 2})
			if err != nil {
				return false
			}
			cg.SortAdjacency(1)
			if cg.Validate() != nil {
				return false
			}
			if ref == nil {
				ref = cg
			} else if !graph.Equal(ref, cg) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestWeightTable(t *testing.T) {
	wt := newWeightTable(4)
	wt.reset(3)
	wt.add(7, 2)
	wt.add(9, 3)
	wt.add(7, 5)
	got := map[int32]int64{}
	for s := 0; s < wt.cap; s++ {
		if wt.occupied(s) {
			got[wt.keys[s]] = wt.vals[s]
		}
	}
	if got[7] != 7 || got[9] != 3 || len(got) != 2 {
		t.Errorf("weightTable contents = %v", got)
	}
	// Epoch reset must hide all previous entries without touching slots.
	wt.reset(3)
	for s := 0; s < wt.cap; s++ {
		if wt.occupied(s) {
			t.Fatalf("slot %d still occupied after reset", s)
		}
	}
	// The logical capacity is a pure function of the segment size, so the
	// slot layout is the same no matter what earlier segments used it for.
	if wt.cap != 16 {
		t.Errorf("reset(3) cap = %d, want 16", wt.cap)
	}
	// Force growth via reset with a large segment.
	wt.reset(1000)
	if wt.cap < 2000 {
		t.Errorf("cap = %d after big reset", wt.cap)
	}
}
