package cluster

import (
	"fmt"
	"math"
	"testing"

	"mlcg/internal/coarsen"
	"mlcg/internal/gen"
	"mlcg/internal/graph"
	"mlcg/internal/par"
	"mlcg/internal/partition"
)

// checkProjectionIdentities draws random labelings at every level of h
// (k ∈ {2, 3, 8, 64} and k = the level's vertex count) and requires the
// coarse-level evaluation to equal the level-0 evaluation of the projected
// labeling bit for bit: KWayEdgeCut and KWayImbalance directly, Modularity
// through ModularityCarried with the level's carried self-weights.
func checkProjectionIdentities(t *testing.T, name string, h *coarsen.Hierarchy, seed uint64) {
	t.Helper()
	g0 := h.Graphs[0]
	selfW := SelfWeights(h, h.Levels())
	if selfW[0] != nil {
		t.Fatalf("%s: level 0 carries self-weights", name)
	}
	rng := par.NewRNG(seed)
	for i := 0; i <= h.Levels(); i++ {
		g := h.Graphs[i]
		for _, k := range []int{2, 3, 8, 64, g.N()} {
			labels := make([]int32, g.N())
			for u := range labels {
				labels[u] = int32(rng.Intn(k))
			}
			fine := labels
			for j := i - 1; j >= 0; j-- {
				fine = coarsen.Project(fine, h.Maps[j], par.Exec{P: 1})
			}
			at := fmt.Sprintf("%s level %d/%d k=%d", name, i, h.Levels(), k)
			if got, want := partition.KWayEdgeCut(g, labels), partition.KWayEdgeCut(g0, fine); got != want {
				t.Errorf("%s: cut %d on the level, %d projected", at, got, want)
			}
			got, want := partition.KWayImbalance(g, labels, k), partition.KWayImbalance(g0, fine, k)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s: imbalance %v on the level, %v projected", at, got, want)
			}
			got, want = ModularityCarried(g, labels, selfW[i]), Modularity(g0, fine)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s: modularity %v on the level, %v projected", at, got, want)
			}
		}
	}
}

// TestProjectionIdentities: cut, imbalance and modularity of a labeling on
// any level of a hierarchy, evaluated there, equal the level-0 values of
// its projection, for every registered mapper (each paired with a
// builder in turn) on four graph families. These identities are what lets
// serve report its answers from the coarsest graph.
func TestProjectionIdentities(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"rgg", gen.RGG(1500, 0, 3)},
		{"ba", gen.BA(1200, 3, 4)},
		{"grid", gen.Grid2D(30, 30)},
		{"web", gen.WebLike(1200, 5)},
	}
	builders := coarsen.BuilderNames()
	for mi, mname := range coarsen.MapperNames() {
		mapper, err := coarsen.MapperByName(mname)
		if err != nil {
			t.Fatal(err)
		}
		builder, err := coarsen.BuilderByName(builders[mi%len(builders)])
		if err != nil {
			t.Fatal(err)
		}
		for gi, tg := range graphs {
			c := coarsen.Coarsener{Mapper: mapper, Builder: builder, Cutoff: 20, Seed: uint64(mi + 1), Workers: 2}
			h, err := c.Run(tg.g)
			if err != nil {
				t.Fatalf("%s on %s: %v", mname, tg.name, err)
			}
			checkProjectionIdentities(t, fmt.Sprintf("%s+%s on %s", mname, builders[mi%len(builders)], tg.name),
				h, uint64(17*mi+gi))
		}
	}
}

// TestProjectionIdentitiesHeavyWeights repeats the identities on a grid
// whose edges carry odd weights just below 2^53, so the total edge weight
// is about 2^61. A float64 running sum of such weights rounds, and it
// rounds differently over the fine edges than over the merged coarse ones;
// only the int64 sums of ModularityCarried make the two evaluations agree.
func TestProjectionIdentitiesHeavyWeights(t *testing.T) {
	grid := gen.Grid2D(12, 12)
	rng := par.NewRNG(9)
	var edges []graph.Edge
	for u := int32(0); u < grid.NumV; u++ {
		adj, _ := grid.Neighbors(u)
		for _, v := range adj {
			if u < v {
				edges = append(edges, graph.Edge{U: u, V: v, W: 1<<53 - 1 - 2*int64(rng.Intn(1<<20))})
			}
		}
	}
	g, err := graph.FromEdges(grid.N(), edges)
	if err != nil {
		t.Fatal(err)
	}
	if total := g.TotalEdgeWeight(); total < 1<<60 {
		t.Fatalf("total edge weight %d, want above 2^60", total)
	}
	for _, mname := range []string{"hec", "hem"} {
		mapper, err := coarsen.MapperByName(mname)
		if err != nil {
			t.Fatal(err)
		}
		c := coarsen.Coarsener{Mapper: mapper, Builder: coarsen.BuildSort{}, Cutoff: 8, Seed: 2, Workers: 2}
		h, err := c.Run(g)
		if err != nil {
			t.Fatal(err)
		}
		if h.Levels() < 2 {
			t.Fatalf("%s: %d levels, want at least 2", mname, h.Levels())
		}
		checkProjectionIdentities(t, mname+" heavy", h, 5)
	}
}
