package coarsen

import (
	"testing"

	"mlcg/internal/graph"
	"mlcg/internal/par"
)

func TestBSuitorListsRespectBound(t *testing.T) {
	for gname, g := range testGraphs() {
		for _, b := range []int{1, 2, 3} {
			lists, _ := bsuitorLists(g, 7, par.Exec{P: 1}, b)
			for u := int32(0); u < g.NumV; u++ {
				if len(lists[u].who) > b {
					t.Fatalf("%s b=%d: vertex %d holds %d suitors", gname, b, u, len(lists[u].who))
				}
				// Every proposal comes from a neighbor.
				for _, v := range lists[u].who {
					if !g.HasEdge(u, v) {
						t.Fatalf("%s b=%d: non-neighbor proposal %d -> %d", gname, b, v, u)
					}
				}
				// List is sorted ascending by weight.
				for i := 1; i < len(lists[u].w); i++ {
					if lists[u].w[i-1] > lists[u].w[i] {
						t.Fatalf("%s b=%d: list of %d unsorted", gname, b, u)
					}
				}
			}
		}
	}
}

func TestBSuitorB1MatchesSuitorSemantics(t *testing.T) {
	// With B = 1 aggregates are matched pairs or singletons.
	for gname, g := range testGraphs() {
		m, err := BSuitor{B: 1}.Map(g, 5, par.Exec{P: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Validate(g.N()); err != nil {
			t.Fatalf("%s: %v", gname, err)
		}
		sizes := make(map[int32]int)
		for _, a := range m.M {
			sizes[a]++
		}
		for a, s := range sizes {
			if s > 2 {
				t.Errorf("%s: aggregate %d has %d members with B=1", gname, a, s)
			}
		}
	}
}

func TestBSuitorDefaultAggregatesConnectedAndBounded(t *testing.T) {
	for gname, g := range testGraphs() {
		m, err := BSuitor{}.Map(g, 9, par.Exec{P: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Validate(g.N()); err != nil {
			t.Fatalf("%s: %v", gname, err)
		}
		if !aggregatesConnected(g, m) {
			t.Errorf("%s: disconnected aggregate", gname)
		}
	}
}

func TestBSuitorCoarsensAtLeastAsMuchAsMatching(t *testing.T) {
	// b=2 components are paths/cycles of unbounded length, so the ratio
	// can exceed 3 on heavy chains; it must at least match a plain
	// matching's reduction.
	g := bigTestGraph(3000, 7)
	hem, _ := HEM{}.Map(g, 3, par.Exec{P: 1})
	bs, _ := BSuitor{}.Map(g, 3, par.Exec{P: 1})
	if bs.Ratio() < hem.Ratio()*0.9 {
		t.Errorf("b-suitor ratio %.2f should be at least matching's %.2f", bs.Ratio(), hem.Ratio())
	}
}

func TestBSuitorMutualDegreeBound(t *testing.T) {
	// The defining b-matching invariant: each vertex has at most B mutual
	// partners, and aggregates (b=2) induce paths/cycles.
	for gname, g := range testGraphs() {
		for _, b := range []int{1, 2, 3} {
			lists, _ := bsuitorLists(g, 13, par.Exec{P: 1}, b)
			for u := int32(0); u < g.NumV; u++ {
				deg := 0
				for _, v := range lists[u].who {
					if lists[v].contains(u) {
						deg++
					}
				}
				if deg > b {
					t.Fatalf("%s b=%d: vertex %d has %d mutual partners", gname, b, u, deg)
				}
			}
		}
	}
}

func TestBSuitorPrefersHeavyEdges(t *testing.T) {
	// Path with one heavy edge: the heavy pair must land in one aggregate.
	g := graph.MustFromEdges(5, []graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 100}, {U: 2, V: 3, W: 1}, {U: 3, V: 4, W: 1},
	})
	for seed := uint64(0); seed < 8; seed++ {
		m, err := BSuitor{}.Map(g, seed, par.Exec{P: 1})
		if err != nil {
			t.Fatal(err)
		}
		if m.M[1] != m.M[2] {
			t.Fatalf("seed %d: heavy pair separated: %v", seed, m.M)
		}
	}
}

func TestBSuitorInMultilevelDriver(t *testing.T) {
	g := bigTestGraph(2000, 11)
	c := &Coarsener{Mapper: BSuitor{}, Builder: BuildSort{}, Seed: 1, Workers: 1}
	h, err := c.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if h.Coarsest().N() > 50 && h.Levels() < 3 {
		t.Errorf("levels=%d coarsest=%d", h.Levels(), h.Coarsest().N())
	}
	for i, cg := range h.Graphs[1:] {
		if err := cg.Validate(); err != nil {
			t.Fatalf("level %d: %v", i+1, err)
		}
	}
}
