package coarsen

import (
	"testing"

	"mlcg/internal/graph"
	"mlcg/internal/par"
)

func TestSuitorIsMatching(t *testing.T) {
	for gname, g := range testGraphs() {
		for _, p := range []int{1, 4} {
			m, err := Suitor{}.Map(g, 7, par.Exec{P: p})
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Validate(g.N()); err != nil {
				t.Fatalf("%s p=%d: %v", gname, p, err)
			}
			members := make(map[int32][]int32)
			for u, a := range m.M {
				members[a] = append(members[a], int32(u))
			}
			for a, mem := range members {
				if len(mem) > 2 {
					t.Fatalf("%s p=%d: aggregate %d has %d members", gname, p, a, len(mem))
				}
				if len(mem) == 2 && !g.HasEdge(mem[0], mem[1]) {
					t.Fatalf("%s p=%d: matched non-adjacent pair %v", gname, p, mem)
				}
			}
		}
	}
}

func TestSuitorHalfApproximation(t *testing.T) {
	// Suitor yields a 1/2-approximate maximum weight matching. Check the
	// guarantee against the exact optimum on small graphs via brute force.
	graphs := map[string]*graph.Graph{
		"weightedPath": graph.MustFromEdges(6, []graph.Edge{
			{U: 0, V: 1, W: 3}, {U: 1, V: 2, W: 5}, {U: 2, V: 3, W: 4},
			{U: 3, V: 4, W: 7}, {U: 4, V: 5, W: 2},
		}),
		"triangle+": graph.MustFromEdges(5, []graph.Edge{
			{U: 0, V: 1, W: 9}, {U: 1, V: 2, W: 8}, {U: 2, V: 0, W: 7},
			{U: 2, V: 3, W: 5}, {U: 3, V: 4, W: 6},
		}),
	}
	for name, g := range graphs {
		opt := bruteForceMaxMatching(g)
		m, err := Suitor{}.Map(g, 3, par.Exec{P: 1})
		if err != nil {
			t.Fatal(err)
		}
		got := matchingWeight(g, m)
		if 2*got < opt {
			t.Errorf("%s: suitor weight %d below half of optimum %d", name, got, opt)
		}
	}
}

// matchingWeight sums the weight of matched edges in a pair mapping.
func matchingWeight(g *graph.Graph, m *Mapping) int64 {
	members := make(map[int32][]int32)
	for u, a := range m.M {
		members[a] = append(members[a], int32(u))
	}
	var total int64
	for _, mem := range members {
		if len(mem) == 2 {
			if w, ok := g.EdgeWeight(mem[0], mem[1]); ok {
				total += w
			}
		}
	}
	return total
}

// bruteForceMaxMatching enumerates all matchings of a small graph.
func bruteForceMaxMatching(g *graph.Graph) int64 {
	type edge struct {
		u, v int32
		w    int64
	}
	var edges []edge
	for u := int32(0); u < g.NumV; u++ {
		adj, wgt := g.Neighbors(u)
		for k, v := range adj {
			if u < v {
				edges = append(edges, edge{u, v, wgt[k]})
			}
		}
	}
	var best int64
	var rec func(i int, used uint32, w int64)
	rec = func(i int, used uint32, w int64) {
		if w > best {
			best = w
		}
		for j := i; j < len(edges); j++ {
			e := edges[j]
			if used&(1<<uint(e.u)) == 0 && used&(1<<uint(e.v)) == 0 {
				rec(j+1, used|1<<uint(e.u)|1<<uint(e.v), w+e.w)
			}
		}
	}
	rec(0, 0, 0)
	return best
}

func TestSuitorPicksHeaviestOnStar(t *testing.T) {
	// On a star with distinct weights, the matching must take the single
	// heaviest edge.
	g := graph.MustFromEdges(5, []graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 0, V: 2, W: 9}, {U: 0, V: 3, W: 3}, {U: 0, V: 4, W: 2},
	})
	m, err := Suitor{}.Map(g, 1, par.Exec{P: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.M[0] != m.M[2] {
		t.Errorf("heaviest edge {0,2} not matched: %v", m.M)
	}
	if m.NC != 4 { // pair + three singletons
		t.Errorf("nc = %d, want 4", m.NC)
	}
}

func TestSuitorSequentialDeterministic(t *testing.T) {
	g := testGraphs()["rand999"]
	a, _ := Suitor{}.Map(g, 5, par.Exec{P: 1})
	b, _ := Suitor{}.Map(g, 5, par.Exec{P: 1})
	for i := range a.M {
		if a.M[i] != b.M[i] {
			t.Fatalf("sequential suitor nondeterministic at %d", i)
		}
	}
}

func TestSuitorInMultilevelDriver(t *testing.T) {
	g := bigTestGraph(2000, 3)
	c := &Coarsener{Mapper: Suitor{}, Builder: BuildSort{}, Seed: 1, Workers: 2}
	h, err := c.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if h.Levels() < 3 {
		t.Errorf("levels = %d", h.Levels())
	}
	// Matching-based: per-level ratio at most 2.
	for i, st := range h.Stats {
		if float64(st.N)/float64(st.NC) > 2.0001 {
			t.Errorf("level %d ratio %v exceeds 2", i, float64(st.N)/float64(st.NC))
		}
	}
}
