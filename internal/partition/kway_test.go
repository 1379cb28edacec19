package partition

import (
	"slices"
	"testing"

	"mlcg/internal/coarsen"
	"mlcg/internal/gen"
	"mlcg/internal/graph"
)

func TestKWayFMPowersOfTwo(t *testing.T) {
	g := gridGraph(24, 24)
	for _, k := range []int{1, 2, 4, 8} {
		res, err := KWayFM(g, k, KWayOptions{Seed: 3})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if len(res.Weights) != k {
			t.Fatalf("k=%d: %d part weights", k, len(res.Weights))
		}
		// Every part id used, all in range.
		seen := make([]bool, k)
		for _, p := range res.Part {
			if p < 0 || int(p) >= k {
				t.Fatalf("k=%d: part id %d out of range", k, p)
			}
			seen[p] = true
		}
		for p, ok := range seen {
			if !ok {
				t.Errorf("k=%d: part %d empty", k, p)
			}
		}
		if imb := KWayImbalance(g, res.Part, k); imb > 0.05 {
			t.Errorf("k=%d: imbalance %.3f", k, imb)
		}
		if k == 1 && res.Cut != 0 {
			t.Errorf("k=1 cut = %d", res.Cut)
		}
		if k > 1 && res.Cut <= 0 {
			t.Errorf("k=%d: cut = %d", k, res.Cut)
		}
	}
}

func TestKWayFMNonPowerOfTwo(t *testing.T) {
	g := gridGraph(21, 30)
	for _, k := range []int{3, 5, 7} {
		res, err := KWayFM(g, k, KWayOptions{Seed: 9})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if imb := KWayImbalance(g, res.Part, k); imb > 0.10 {
			t.Errorf("k=%d: imbalance %.3f", k, imb)
		}
	}
}

func TestKWayCutGrowsWithK(t *testing.T) {
	g := gridGraph(20, 20)
	prev := int64(0)
	for _, k := range []int{2, 4, 8} {
		res, err := KWayFM(g, k, KWayOptions{Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		if res.Cut < prev {
			t.Errorf("cut decreased from %d to %d at k=%d", prev, res.Cut, k)
		}
		prev = res.Cut
	}
	// Sanity: 4-way of a 20x20 grid should be near 2 straight cuts (~40).
	res, _ := KWayFM(g, 4, KWayOptions{Seed: 5})
	if res.Cut > 80 {
		t.Errorf("4-way grid cut = %d, want near 40", res.Cut)
	}
}

func TestKWayWithAlternateMapper(t *testing.T) {
	g := gridGraph(16, 16)
	res, err := KWayFM(g, 4, KWayOptions{Mapper: coarsen.TwoHop{}, Builder: coarsen.BuildHash{}, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if imb := KWayImbalance(g, res.Part, 4); imb > 0.05 {
		t.Errorf("imbalance %.3f", imb)
	}
}

func TestSplitByVectorTargetProportional(t *testing.T) {
	g := gridGraph(10, 10)
	x := make([]float64, g.N())
	for i := range x {
		x[i] = float64(i)
	}
	part := SplitByVectorTarget(g, x, 25)
	w := SideWeights(g, part)
	if w[0] != 25 {
		t.Errorf("side 0 weight %d, want 25", w[0])
	}
	// Prefix split: side 0 must be exactly the 25 lowest-value vertices.
	for i := 0; i < 25; i++ {
		if part[i] != 0 {
			t.Fatalf("vertex %d should be side 0", i)
		}
	}
}

func TestKWayRejectsBadK(t *testing.T) {
	g := gridGraph(4, 4)
	if _, err := KWayFM(g, 0, KWayOptions{}); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestKWayEdgeCutMatchesBisection(t *testing.T) {
	g := gridGraph(12, 12)
	res, err := KWayFM(g, 2, KWayOptions{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cut != EdgeCut(g, res.Part) {
		t.Errorf("KWayEdgeCut %d != EdgeCut %d", res.Cut, EdgeCut(g, res.Part))
	}
}

func TestGreedyGrowTargetProportional(t *testing.T) {
	g := gridGraph(15, 15)                // weight 225
	part := GreedyGrowTarget(g, 3, 4, 75) // one third on side 0
	w := SideWeights(g, part)
	if w[0] < 60 || w[0] > 90 {
		t.Errorf("side 0 weight %d, want ~75", w[0])
	}
}

func TestRefineFMTargetedBalance(t *testing.T) {
	g := gridGraph(12, 12) // weight 144
	part := make([]int32, g.N())
	for i := range part {
		part[i] = int32(i % 2)
	}
	RefineFM(g, part, FMOptions{TargetW0: 48})
	w := SideWeights(g, part)
	if d := w[0] - 48; d < -2 || d > 2 {
		t.Errorf("side 0 weight %d, want 48 +/- 2", w[0])
	}
}

// TestKWayStopsAtEmptyPieces: with k far above the vertex count most
// recursive pieces are empty. The recursion must return on an empty piece
// instead of bisecting it again, which made k-way time grow with k past n.
func TestKWayStopsAtEmptyPieces(t *testing.T) {
	g := gen.RGG(300, 0, 7)
	const k = 1000
	res, err := KWayFM(g, k, KWayOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for u, p := range res.Part {
		if p < 0 || p >= k {
			t.Fatalf("vertex %d: part id %d out of range", u, p)
		}
	}
	// A bisection allocates its result and each side's induced subgraph,
	// so an empty piece that returns at once allocates nothing.
	empty := graph.MustFromEdges(0, nil)
	opt := KWayOptions{Mapper: coarsen.HEC{}, Builder: coarsen.BuildSort{}, Workers: 2}
	allocs := testing.AllocsPerRun(10, func() {
		if err := kwayRecurse(empty, k, 0, nil, nil, &opt, 1, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("k-way recursion on an empty piece: %v allocations, want 0", allocs)
	}
}

// TestKWayFMTwoWayIsFMBisection pins the k-way recursion to the kept
// bisector: at k = 2 it runs one FMBisector (HEC + sort) with the
// partition's seed and a half-weight target, so its parts and cut are
// exactly that bisection's at every worker count.
func TestKWayFMTwoWayIsFMBisection(t *testing.T) {
	inputs := []struct {
		name string
		g    *graph.Graph
	}{
		{"rgg", gen.RGG(3000, 0, 1)},
		{"ba", gen.BA(2000, 3, 5)},
		{"grid", gridGraph(30, 40)},
	}
	for _, in := range inputs {
		for _, seed := range []uint64{1, 2, 3} {
			for _, p := range oracleWorkers {
				kr, err := KWayFM(in.g, 2, KWayOptions{Seed: seed, Workers: p})
				if err != nil {
					t.Fatal(err)
				}
				b := &FMBisector{
					Coarsener: coarsen.Coarsener{Mapper: coarsen.HEC{}, Builder: coarsen.BuildSort{}, Seed: seed, Workers: p},
					Seed:      seed,
					TargetW0:  in.g.TotalVertexWeight() / 2,
				}
				br, err := b.Bisect(in.g)
				if err != nil {
					t.Fatal(err)
				}
				if kr.Cut != br.Cut || !slices.Equal(kr.Part, br.Part) {
					t.Fatalf("%s seed %d p=%d: k-way cut %d, bisection cut %d (or the parts differ)",
						in.name, seed, p, kr.Cut, br.Cut)
				}
			}
		}
	}
}
