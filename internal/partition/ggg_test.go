package partition

import (
	"slices"
	"testing"

	"mlcg/internal/gen"
	"mlcg/internal/graph"
	"mlcg/internal/par"
)

// greedyGrowRecount is greedy growing with every trial's cut recounted by
// EdgeCut after the region is grown, the way GreedyGrowTarget chose its
// trial before growOnce tracked the cut. It returns the chosen bisection
// and each trial's recounted and tracked cuts.
func greedyGrowRecount(g *graph.Graph, seed uint64, trials int, target0 int64) (best []int32, cuts, tracked []int64) {
	if target0 <= 0 {
		target0 = g.TotalVertexWeight() / 2
	}
	rng := par.NewRNG(seed)
	var bestCut int64 = -1
	for t := 0; t < trials; t++ {
		part, tc := growOnce(g, rng.Intn(g.N()), target0)
		cut := EdgeCut(g, part)
		cuts = append(cuts, cut)
		tracked = append(tracked, tc)
		if bestCut < 0 || cut < bestCut {
			bestCut = cut
			best = part
		}
	}
	return best, cuts, tracked
}

// TestGreedyGrowTrackedCut: the cut growOnce tracks as it grows equals
// EdgeCut of the region it returns (480 trials), and GreedyGrowTarget
// keeps the trial that recounting picks, the first strictly lowest cut.
// Every trial on the cycle cuts two edges, so the tie rule decides there,
// and the disjoint triangles exhaust the frontier, so the fallback absorb
// runs.
func TestGreedyGrowTrackedCut(t *testing.T) {
	cycle := make([]graph.Edge, 64)
	for i := range cycle {
		cycle[i] = graph.Edge{U: int32(i), V: int32((i + 1) % 64), W: 3}
	}
	var triangles []graph.Edge
	for c := int32(0); c < 10; c++ {
		triangles = append(triangles,
			graph.Edge{U: 3 * c, V: 3*c + 1, W: 1}, graph.Edge{U: 3*c + 1, V: 3*c + 2, W: 2},
			graph.Edge{U: 3 * c, V: 3*c + 2, W: 4})
	}
	mustGraph := func(n int, e []graph.Edge) *graph.Graph {
		g, err := graph.FromEdges(n, e)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"rgg", gen.RGG(3000, 0, 1)},
		{"ba", gen.BA(2000, 4, 2)},
		{"grid", gen.Grid2D(40, 40)},
		{"web", gen.WebLike(2000, 3)},
		{"cycle", mustGraph(64, cycle)},
		{"triangles", mustGraph(30, triangles)},
	}
	for _, tg := range graphs {
		g := tg.g
		for seed := uint64(1); seed <= 10; seed++ {
			for _, target0 := range []int64{0, g.TotalVertexWeight() / 3} {
				want, cuts, tracked := greedyGrowRecount(g, seed, 4, target0)
				if !slices.Equal(tracked, cuts) {
					t.Errorf("%s seed %d target %d: tracked cuts %v, EdgeCut %v", tg.name, seed, target0, tracked, cuts)
				}
				if got := GreedyGrowTarget(g, seed, 4, target0); !slices.Equal(got, want) {
					t.Errorf("%s seed %d target %d: trial chosen differs from recounting (cuts %v)", tg.name, seed, target0, cuts)
				}
				if tg.name == "cycle" && slices.Max(cuts) != slices.Min(cuts) {
					t.Errorf("cycle seed %d: trial cuts %v, want all tied", seed, cuts)
				}
			}
		}
	}
}
