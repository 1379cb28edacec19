package partition

import (
	"slices"
	"testing"

	"mlcg/internal/coarsen"
	"mlcg/internal/gen"
	"mlcg/internal/graph"
	"mlcg/internal/obs"
	"mlcg/internal/par"
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

func TestKWaySpectral(t *testing.T) {
	g := gridGraph(20, 20)
	for _, k := range []int{2, 4} {
		res, err := KWaySpectral(g, k, KWayOptions{Seed: 7},
			FiedlerOptions{MaxIter: 800, Workers: 1})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if imb := KWayImbalance(g, res.Part, k); imb > 0.06 {
			t.Errorf("k=%d: imbalance %.3f", k, imb)
		}
		if res.Cut <= 0 {
			t.Errorf("k=%d: cut %d", k, res.Cut)
		}
	}
	// Spectral 4-way of a grid should be in the same ballpark as FM.
	sp, _ := KWaySpectral(g, 4, KWayOptions{Seed: 7}, FiedlerOptions{MaxIter: 800})
	fm, _ := KWayFM(g, 4, KWayOptions{Seed: 7})
	if float64(sp.Cut) > 2.5*float64(fm.Cut) {
		t.Errorf("spectral 4-way cut %d vs FM %d", sp.Cut, fm.Cut)
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

func TestKWayPairwiseRefinementNeverWorsens(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		g := randGraph(600, seed)
		base, err := KWayFM(g, 6, KWayOptions{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		refined, err := KWayFM(g, 6, KWayOptions{Seed: seed, PairwiseRounds: 2})
		if err != nil {
			t.Fatal(err)
		}
		if refined.Cut > base.Cut {
			t.Errorf("seed %d: pairwise refinement worsened %d -> %d", seed, base.Cut, refined.Cut)
		}
		if imb := KWayImbalance(g, refined.Part, 6); imb > 0.12 {
			t.Errorf("seed %d: imbalance %.3f after refinement", seed, imb)
		}
	}
}

func TestRefineKWayPairwiseDirect(t *testing.T) {
	// A deliberately bad 4-way assignment on a grid: stripes of width 1
	// assigned round-robin. Pairwise refinement must improve it a lot.
	g := gridGraph(16, 16)
	part := make([]int32, g.N())
	for i := range part {
		part[i] = int32((i / 16) % 4) // row mod 4
	}
	before := KWayEdgeCut(g, part)
	after := RefineKWayPairwise(g, part, 4, FMOptions{}, 4)
	if after >= before {
		t.Errorf("no improvement: %d -> %d", before, after)
	}
	if after != KWayEdgeCut(g, part) {
		t.Errorf("returned cut %d != actual %d", after, KWayEdgeCut(g, part))
	}
	// All four parts still present and roughly balanced.
	if imb := KWayImbalance(g, part, 4); imb > 0.10 {
		t.Errorf("imbalance %.3f", imb)
	}
}

// TestKWayPairwiseDeterminism: pairwise refinement visits the adjacent
// part pairs in a fixed order, so repeated runs on one input agree. On a
// random 8-way start every one of the 28 pairs is adjacent, and the order
// changes which refinements see which parts.
func TestKWayPairwiseDeterminism(t *testing.T) {
	g := gen.BA(2000, 4, 3)
	start := make([]int32, g.N())
	for u := range start {
		start[u] = int32(par.Mix64(uint64(u)) % 8)
	}
	var want []int32
	var wantCut int64
	for run := 0; run < 6; run++ {
		part := slices.Clone(start)
		cut := RefineKWayPairwise(g, part, 8, FMOptions{}, 3)
		if want == nil {
			want, wantCut = part, cut
			continue
		}
		if cut != wantCut || !slices.Equal(part, want) {
			t.Fatalf("run %d: cut %d, first run %d (or the parts differ)", run, cut, wantCut)
		}
	}
}

func TestKWayRejectsBadK(t *testing.T) {
	g := gridGraph(4, 4)
	if _, err := KWayFM(g, 0, KWayOptions{}); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestKWaySpectralNonPowerOfTwo(t *testing.T) {
	g := gridGraph(15, 20)
	res, err := KWaySpectral(g, 3, KWayOptions{Seed: 5}, FiedlerOptions{MaxIter: 500})
	if err != nil {
		t.Fatal(err)
	}
	if imb := KWayImbalance(g, res.Part, 3); imb > 0.10 {
		t.Errorf("imbalance %.3f", imb)
	}
	seen := make([]bool, 3)
	for _, p := range res.Part {
		seen[p] = true
	}
	for i, ok := range seen {
		if !ok {
			t.Errorf("part %d empty", i)
		}
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
	res, err := kway(g, k, KWayOptions{}, func(sub *graph.Graph, target0 int64, seed uint64, span *obs.Span) (*Result, error) {
		if sub.N() == 0 {
			t.Fatal("bisect called on an empty piece")
		}
		b := &FMBisector{
			Coarsener: coarsen.Coarsener{Mapper: coarsen.HEC{}, Builder: coarsen.BuildSort{}, Seed: seed, Workers: 2},
			Seed:      seed,
			TargetW0:  target0,
		}
		return b.bisect(sub, span)
	})
	if err != nil {
		t.Fatal(err)
	}
	for u, p := range res.Part {
		if p < 0 || p >= k {
			t.Fatalf("vertex %d: part id %d out of range", u, p)
		}
	}
}
