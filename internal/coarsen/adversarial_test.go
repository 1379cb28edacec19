package coarsen

import (
	"fmt"
	"testing"

	"mlcg/internal/graph"
	"mlcg/internal/par"
)

// Adversarial structures that historically break coarsening codes: deep
// stars-of-stars (recursion/pointer-jumping depth), barbells (balance
// pressure), complete bipartite graphs (dedup blowup), long heavy chains
// (HEC pass counts), and near-overflow edge weights (accumulator safety).

func starOfStars(fanout, depth int) *graph.Graph {
	var e []graph.Edge
	next := int32(1)
	var build func(root int32, d int)
	build = func(root int32, d int) {
		if d == 0 {
			return
		}
		for i := 0; i < fanout; i++ {
			child := next
			next++
			e = append(e, graph.Edge{U: root, V: child, W: int64(d)})
			build(child, d-1)
		}
	}
	build(0, depth)
	return graph.MustFromEdges(int(next), e)
}

func barbell(k int) *graph.Graph {
	var e []graph.Edge
	for side := 0; side < 2; side++ {
		base := int32(side * k)
		for i := int32(0); i < int32(k); i++ {
			for j := i + 1; j < int32(k); j++ {
				e = append(e, graph.Edge{U: base + i, V: base + j, W: 2})
			}
		}
	}
	e = append(e, graph.Edge{U: 0, V: int32(k), W: 1})
	return graph.MustFromEdges(2*k, e)
}

func completeBipartite(a, b int) *graph.Graph {
	var e []graph.Edge
	for i := 0; i < a; i++ {
		for j := 0; j < b; j++ {
			e = append(e, graph.Edge{U: int32(i), V: int32(a + j), W: int64(i+j)%7 + 1})
		}
	}
	return graph.MustFromEdges(a+b, e)
}

// increasingChain makes HEC's heavy pointers form one long chain — the
// worst case for Algorithm 4's pass count.
func increasingChain(n int) *graph.Graph {
	var e []graph.Edge
	for i := 0; i < n-1; i++ {
		e = append(e, graph.Edge{U: int32(i), V: int32(i + 1), W: int64(i + 1)})
	}
	return graph.MustFromEdges(n, e)
}

func TestAdversarialStructuresAllMappers(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"starOfStars": starOfStars(4, 5),
		"barbell":     barbell(20),
		"bipartite":   completeBipartite(12, 40),
		"chain":       increasingChain(500),
	}
	for gname, g := range graphs {
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", gname, err)
		}
		for _, mapper := range allMappers(t) {
			m, err := mapper.Map(g, 3, par.Exec{P: 4})
			if err != nil {
				t.Fatalf("%s/%s: %v", gname, mapper.Name(), err)
			}
			if err := m.Validate(g.N()); err != nil {
				t.Fatalf("%s/%s: %v", gname, mapper.Name(), err)
			}
			cg, err := BuildSort{}.Build(g, m, par.Exec{P: 4})
			if err != nil {
				t.Fatalf("%s/%s: %v", gname, mapper.Name(), err)
			}
			if err := cg.Validate(); err != nil {
				t.Fatalf("%s/%s: coarse graph: %v", gname, mapper.Name(), err)
			}
		}
	}
}

func TestIncreasingChainHECPasses(t *testing.T) {
	// The chain is HEC's worst case: each pass resolves only the tail.
	// The implementation must fall back to the sequential cleanup rather
	// than looping forever, and still map everything.
	g := increasingChain(2000)
	m, err := HEC{MaxPasses: 4}.Map(g, 1, par.Exec{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(g.N()); err != nil {
		t.Fatal(err)
	}
	if m.Passes > 5 { // 4 parallel + 1 cleanup accounting
		t.Errorf("passes = %d", m.Passes)
	}
}

func TestHugeWeightsNoOverflow(t *testing.T) {
	// Weights near 2^50; merging hundreds of them stays far below int64
	// overflow but would wreck any int32 accumulator. The total must be
	// conserved exactly through coarsening and partitioning.
	const w = int64(1) << 50
	var e []graph.Edge
	n := 200
	for i := 0; i < n-1; i++ {
		e = append(e, graph.Edge{U: int32(i), V: int32(i + 1), W: w + int64(i)})
	}
	for i := 0; i < n; i += 3 {
		j := (i + 57) % n
		if i != j {
			e = append(e, graph.Edge{U: int32(i), V: int32(j), W: w - int64(i)})
		}
	}
	g := graph.MustFromEdges(n, e)
	total := g.TotalEdgeWeight()
	for _, bname := range BuilderNames() {
		b, _ := BuilderByName(bname)
		m, err := HEC{}.Map(g, 5, par.Exec{P: 2})
		if err != nil {
			t.Fatal(err)
		}
		cg, err := b.Build(g, m, par.Exec{P: 2})
		if err != nil {
			t.Fatalf("%s: %v", bname, err)
		}
		var intra int64
		for u := int32(0); u < g.NumV; u++ {
			adj, wgt := g.Neighbors(u)
			for k, v := range adj {
				if u < v && m.M[u] == m.M[v] {
					intra += wgt[k]
				}
			}
		}
		if got := cg.TotalEdgeWeight() + intra; got != total {
			t.Errorf("%s: weight %d, want %d", bname, got, total)
		}
	}
}

// policyBuilders are the construction strategies the auto decision rule
// can dispatch to, plus the policy itself.
func policyBuilders(t *testing.T) []Builder {
	t.Helper()
	var out []Builder
	for _, name := range []string{"sort", "hash", "segsort", "spgemm", "globalsort", "auto"} {
		b, err := BuilderByName(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

// TestAutoPolicyEdgeCases drives every policy-selectable builder (and the
// policy itself) through the degenerate inputs that break dispatch
// surfaces: the empty graph, a single vertex, a star, an already-coarsest
// identity mapping, and a level that densifies to near-clique. Each output
// must satisfy the full coarse-graph invariant battery.
func TestAutoPolicyEdgeCases(t *testing.T) {
	star := func(leaves int) *graph.Graph {
		var e []graph.Edge
		for i := 1; i <= leaves; i++ {
			e = append(e, graph.Edge{U: 0, V: int32(i), W: int64(i%5 + 1)})
		}
		return graph.MustFromEdges(leaves+1, e)
	}
	starMap := func(leaves int) *Mapping {
		// Hub keeps its own aggregate; leaves merge pairwise.
		m := make([]int32, leaves+1)
		for i := 1; i <= leaves; i++ {
			m[i] = 1 + int32(i-1)/2
		}
		return &Mapping{M: m, NC: 1 + int32((leaves+1)/2)}
	}
	identity := func(n int) *Mapping {
		m := make([]int32, n)
		for i := range m {
			m[i] = int32(i)
		}
		return &Mapping{M: m, NC: int32(n)}
	}
	bip := completeBipartite(40, 40)
	bipMap := make([]int32, bip.N())
	for u := range bipMap {
		bipMap[u] = int32(u % 2)
	}
	cases := []struct {
		name string
		g    *graph.Graph
		m    *Mapping
	}{
		{"empty", graph.MustFromEdges(0, nil), &Mapping{M: []int32{}, NC: 0}},
		{"singleVertex", graph.MustFromEdges(1, nil), &Mapping{M: []int32{0}, NC: 1}},
		{"star", star(64), starMap(64)},
		{"alreadyCoarsest", increasingChain(100), identity(100)},
		{"nearClique", bip, &Mapping{M: bipMap, NC: 2}},
	}
	for _, tc := range cases {
		if err := tc.m.Validate(tc.g.N()); err != nil {
			t.Fatalf("%s: bad test mapping: %v", tc.name, err)
		}
		for _, b := range policyBuilders(t) {
			for _, p := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/%s/p%d", tc.name, b.Name(), p), func(t *testing.T) {
					cg, err := b.Build(tc.g, tc.m, par.Exec{P: p})
					if err != nil {
						t.Fatal(err)
					}
					CheckCoarseInvariants(t, tc.g, tc.m, cg)
				})
			}
		}
	}
}

// TestAutoDecisionRuleCoverage pins the decision rule's branch map: each
// adversarial regime must select the documented builder, and between them
// the regimes must reach every builder the policy can dispatch to.
func TestAutoDecisionRuleCoverage(t *testing.T) {
	cases := []struct {
		name            string
		m               int64
		nc              int32
		skew, dens      float64
		p               int
		builder, reason string
	}{
		{"empty", 0, 0, 0, 0, 1, "sort", "trivial-level"},
		{"singleCoarseVertex", 500, 1, 1, 0, 4, "sort", "trivial-level"},
		{"tinyStar", 64, 33, 30, 0.1, 4, "hash", "tiny-level"},
		{"nearClique", 1600, 2, 1.0, 1600, 1, "spgemm", "near-clique"},
		{"denseFoldSerial", 121269, 613, 4.8, 0.65, 1, "hash", "dense-fold"},
		{"denseFoldParallel", 121269, 613, 4.8, 0.65, 4, "hash", "dense-fold"},
		{"serialRegular", 3000, 1000, 1.9, 0.006, 1, "globalsort", "serial-default"},
		{"parallelSkewed", 3000, 1000, 1500, 0.006, 4, "segsort", "skewed-parallel"},
		{"parallelRegular", 3000, 1000, 1.9, 0.006, 4, "sort", "regular-parallel"},
	}
	covered := map[string]bool{}
	for _, tc := range cases {
		name, reason := decideConstruct(tc.m, tc.nc, tc.skew, tc.dens, tc.p)
		if name != tc.builder || reason != tc.reason {
			t.Errorf("%s: decide = (%s, %s), want (%s, %s)", tc.name, name, reason, tc.builder, tc.reason)
		}
		covered[name] = true
	}
	for _, want := range []string{"sort", "hash", "segsort", "spgemm", "globalsort"} {
		if !covered[want] {
			t.Errorf("decision rule never selects %s", want)
		}
	}
	// Every name the rule returns must dispatch to the builder of that
	// name, so LevelStats.Builder names the kernel that actually ran.
	for name := range covered {
		target, ok := autoTargets[name]
		if !ok {
			t.Errorf("decision rule selects %s, which has no autoTargets entry", name)
			continue
		}
		if got := target.builder.Name(); got != name {
			t.Errorf("autoTargets[%q] dispatches to %s", name, got)
		}
	}
}

// TestWorkspaceReuseAcrossBuilderSwitch is the regression test for the
// builder-switching workspace hazard the auto policy introduces: one
// Workspace now serves different builders (and different graphs) level
// after level, so buffers sized and epoch-stamped by builder A are handed
// to builder B. Every build through the battle-worn shared workspace must
// be byte-identical to the same build on a fresh one.
func TestWorkspaceReuseAcrossBuilderSwitch(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"bipartite", completeBipartite(12, 40)},
		{"starOfStars", starOfStars(4, 5)},
		{"chain", increasingChain(500)},
	}
	order := []string{"sort", "hash", "segsort", "spgemm", "globalsort", "hash", "sort", "segsort"}
	shared := NewWorkspace()
	for round := 0; round < 2; round++ {
		// Interleave graphs of different sizes so buffers are grown, then
		// reused smaller, then regrown — the sizing hazard, not just the
		// staleness hazard.
		for _, tg := range graphs {
			m, err := HEC{}.Map(tg.g, 3, par.Exec{P: 2})
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []int{1, 4} {
				for _, bn := range order {
					b, err := BuilderByName(bn)
					if err != nil {
						t.Fatal(err)
					}
					got, err := b.BuildWith(shared, tg.g, m, par.Exec{P: p})
					if err != nil {
						t.Fatalf("round %d %s/%s/p%d (shared): %v", round, tg.name, bn, p, err)
					}
					want, err := b.BuildWith(NewWorkspace(), tg.g, m, par.Exec{P: p})
					if err != nil {
						t.Fatalf("%s/%s/p%d (fresh): %v", tg.name, bn, p, err)
					}
					if !rawEqual(got, want) {
						t.Fatalf("round %d %s/%s/p%d: shared-workspace CSR differs from fresh-workspace CSR",
							round, tg.name, bn, p)
					}
				}
			}
		}
	}
}

func TestBarbellBisection(t *testing.T) {
	// The optimal barbell bisection cuts the single bridge.
	g := barbell(24)
	m, err := HEC{}.Map(g, 3, par.Exec{P: 2})
	if err != nil {
		t.Fatal(err)
	}
	// HEC must not contract the bridge while heavier intra-clique edges
	// exist (heavy-edge preference).
	if m.M[0] == m.M[24] && m.NC > 2 {
		t.Errorf("bridge contracted before cliques collapsed")
	}
}

func TestMultilevelOnStarOfStars(t *testing.T) {
	g := starOfStars(3, 7) // deep hierarchy, n = (3^8-1)/2
	c := &Coarsener{Mapper: HEC{}, Builder: BuildSort{}, Seed: 2, Workers: 2}
	h, err := c.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	for i, cg := range h.Graphs[1:] {
		if err := cg.Validate(); err != nil {
			t.Fatalf("level %d: %v", i+1, err)
		}
	}
	if h.Coarsest().TotalVertexWeight() != int64(g.N()) {
		t.Error("vertex weight lost")
	}
}
