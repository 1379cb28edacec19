package partition

import (
	"testing"

	"mlcg/internal/coarsen"
	"mlcg/internal/graph"
	"mlcg/internal/par"
)

// bruteForceMinBisection enumerates all balanced bisections of a small
// unit-weight graph (n <= ~20) and returns the minimum cut. Balance means
// |w0 - w1| <= 1.
func bruteForceMinBisection(g *graph.Graph) int64 {
	n := g.N()
	if n > 22 {
		panic("graph too large for brute force")
	}
	best := int64(-1)
	part := make([]int32, n)
	half := n / 2
	// Enumerate subsets with |S| == floor(n/2) (and ceil for odd n, which
	// the complement covers automatically).
	var rec func(idx, chosen int)
	rec = func(idx, chosen int) {
		if chosen == half {
			for i := idx; i < n; i++ {
				part[i] = 1
			}
			cut := EdgeCut(g, part)
			if best < 0 || cut < best {
				best = cut
			}
			for i := idx; i < n; i++ {
				part[i] = 0
			}
			return
		}
		if n-idx < half-chosen {
			return
		}
		part[idx] = 0
		rec(idx+1, chosen+1)
		part[idx] = 1
		rec(idx+1, chosen)
		part[idx] = 0
	}
	// part[i]=0 means "in the size-half side".
	rec(0, 0)
	return best
}

// smallGraphs returns brute-forceable instances with known structure.
func smallGraphs() map[string]*graph.Graph {
	out := map[string]*graph.Graph{}
	out["ring12"] = func() *graph.Graph {
		var e []graph.Edge
		for i := 0; i < 12; i++ {
			e = append(e, graph.Edge{U: int32(i), V: int32((i + 1) % 12), W: 1})
		}
		return graph.MustFromEdges(12, e)
	}()
	out["grid4x4"] = gridGraph(4, 4)
	out["clusters2x7"] = twoClusters(7)
	rng := par.NewRNG(5)
	var e []graph.Edge
	for i := 0; i < 13; i++ {
		e = append(e, graph.Edge{U: int32(i), V: int32((i + 1) % 14), W: 1})
	}
	for i := 0; i < 14; i++ {
		u, v := rng.Intn(14), rng.Intn(14)
		if u != v {
			e = append(e, graph.Edge{U: int32(u), V: int32(v), W: 1})
		}
	}
	out["rand14"] = graph.MustFromEdges(14, e)
	return out
}

func TestBisectionNeverBeatsBruteForce(t *testing.T) {
	// Fundamental sanity: no partitioner can report a balanced cut below
	// the exhaustive optimum. A violation means the cut computation or
	// the balance enforcement is broken.
	for name, g := range smallGraphs() {
		opt := bruteForceMinBisection(g)
		for seed := uint64(0); seed < 5; seed++ {
			fm, err := NewHECFM(seed, 1).Bisect(g)
			if err != nil {
				t.Fatal(err)
			}
			if err := CheckBisection(g, fm.Part, 1); err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			if fm.Cut < opt {
				t.Fatalf("%s seed %d: FM cut %d below optimum %d", name, seed, fm.Cut, opt)
			}
			sp := &SpectralBisector{
				Coarsener: coarsen.Coarsener{Mapper: coarsen.HEC{}, Builder: coarsen.BuildSort{}, Seed: seed, Workers: 1},
				Fiedler:   FiedlerOptions{MaxIter: 2000, Workers: 1},
				Seed:      seed,
			}
			spr, err := sp.Bisect(g)
			if err != nil {
				t.Fatal(err)
			}
			if spr.Cut < opt {
				t.Fatalf("%s seed %d: spectral cut %d below optimum %d", name, seed, spr.Cut, opt)
			}
		}
	}
}

func TestFMFindsOptimumOnEasyInstances(t *testing.T) {
	// On the ring and the two-cluster graphs the optimum is easy; FM
	// should find it (cut 2 on a ring, 1 on clusters).
	ring := smallGraphs()["ring12"]
	opt := bruteForceMinBisection(ring)
	if opt != 2 {
		t.Fatalf("ring optimum = %d, want 2", opt)
	}
	found := false
	for seed := uint64(0); seed < 8; seed++ {
		res, err := NewHECFM(seed, 1).Bisect(ring)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cut == 2 {
			found = true
			break
		}
	}
	if !found {
		t.Error("FM never found the ring optimum in 8 seeds")
	}

	cl := smallGraphs()["clusters2x7"]
	res, err := NewHECFM(3, 1).Bisect(cl)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cut != bruteForceMinBisection(cl) {
		t.Errorf("cluster cut %d, optimum %d", res.Cut, bruteForceMinBisection(cl))
	}
}
