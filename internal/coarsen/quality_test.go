package coarsen

import (
	"strings"
	"testing"

	"mlcg/internal/graph"
	"mlcg/internal/par"
)

func TestQualityReport(t *testing.T) {
	// Path 0-1-2-3 with weights 5,1,5 mapped into {0,1} {2,3}.
	g := graph.MustFromEdges(4, []graph.Edge{
		{U: 0, V: 1, W: 5}, {U: 1, V: 2, W: 1}, {U: 2, V: 3, W: 5},
	})
	m := &Mapping{M: []int32{0, 0, 1, 1}, NC: 2}
	r, err := Quality(g, m)
	if err != nil {
		t.Fatal(err)
	}
	if r.NC != 2 || r.Ratio != 2 {
		t.Errorf("nc=%d ratio=%v", r.NC, r.Ratio)
	}
	if r.IntraWeight != 10 || r.CrossWeight != 1 {
		t.Errorf("intra=%d cross=%d, want 10,1", r.IntraWeight, r.CrossWeight)
	}
	if r.RetainedFrac < 0.9 {
		t.Errorf("retained = %v", r.RetainedFrac)
	}
	if r.MinAgg != 2 || r.MaxAgg != 2 || r.MedianAgg != 2 {
		t.Errorf("agg sizes %d/%d/%d", r.MinAgg, r.MedianAgg, r.MaxAgg)
	}
	if r.SingletonFrac != 0 {
		t.Errorf("singletons = %v", r.SingletonFrac)
	}
	if !strings.Contains(r.String(), "nc=2") {
		t.Errorf("String() = %q", r.String())
	}
}

func TestQualitySingletons(t *testing.T) {
	g := graph.MustFromEdges(3, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}})
	m := &Mapping{M: []int32{0, 1, 2}, NC: 3} // identity: all singletons
	r, err := Quality(g, m)
	if err != nil {
		t.Fatal(err)
	}
	if r.SingletonFrac != 1 {
		t.Errorf("singleton frac = %v", r.SingletonFrac)
	}
	if r.RetainedFrac != 0 {
		t.Errorf("retained = %v, want 0", r.RetainedFrac)
	}
}

func TestQualityRejectsBadMapping(t *testing.T) {
	g := graph.MustFromEdges(2, []graph.Edge{{U: 0, V: 1, W: 1}})
	if _, err := Quality(g, &Mapping{M: []int32{0, 3}, NC: 2}); err == nil {
		t.Error("bad mapping accepted")
	}
}

func TestHECRetainsHeavyWeight(t *testing.T) {
	// HEC contracts heavy edges, so its retained weight fraction should
	// beat a random matching's on a weighted graph.
	g := testGraphs()["rand999"]
	m, err := HEC{}.Map(g, 3, par.Exec{P: 2})
	if err != nil {
		t.Fatal(err)
	}
	r, err := Quality(g, m)
	if err != nil {
		t.Fatal(err)
	}
	if r.RetainedFrac < 0.3 {
		t.Errorf("HEC retained only %.1f%% of edge weight", 100*r.RetainedFrac)
	}
}

func TestVerifyStrictAggregation(t *testing.T) {
	g := testGraphs()["grid8x9"]
	m, err := HEC{}.Map(g, 5, par.Exec{P: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyStrictAggregation(g, m); err != nil {
		t.Errorf("HEC flagged: %v", err)
	}
	// A deliberately disconnected aggregate must be flagged: map two
	// far-apart grid corners together.
	bad := &Mapping{M: make([]int32, g.N()), NC: int32(g.N() - 1)}
	for i := range bad.M {
		bad.M[i] = int32(i)
	}
	bad.M[g.N()-1] = 0 // corner joins vertex 0's aggregate; not adjacent
	// Compact: id g.N()-1 now unused; rebuild a compact mapping instead.
	for i := range bad.M {
		if bad.M[i] == int32(g.N()-1) {
			bad.M[i] = 0
		}
	}
	if err := VerifyStrictAggregation(g, bad); err == nil {
		t.Error("disconnected aggregate not flagged")
	}
}
