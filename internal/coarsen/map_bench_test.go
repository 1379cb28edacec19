package coarsen

import (
	"context"
	"testing"

	"mlcg/internal/gen"
	"mlcg/internal/graph"
	"mlcg/internal/obs"
	"mlcg/internal/par"
)

// benchMapWithRenumber runs the mapper end to end ("full") and the canonical
// renumber kernel alone ("renumber") on the same instance, so the relative
// cost of the canonicalization pass can be read off directly. The renumber
// sub-benchmark exploits idempotence: canonical labels are a fixpoint of
// canonicalize, so the kernel re-runs on its own output without per-iteration
// copies. The acceptance target is renumber < 5% of full map time.
func benchMapWithRenumber(b *testing.B, mapper Mapper) {
	g := bigTestGraph(100000, 5)
	p := 0 // GOMAXPROCS

	b.Run("full", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := mapper.Map(g, 42, p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("renumber", func(b *testing.B) {
		m, err := mapper.Map(g, 42, p)
		if err != nil {
			b.Fatal(err)
		}
		pos := par.InversePerm(par.RandPerm(g.N(), 42, p), p)
		labels := append([]int32(nil), m.M...)
		canonicalize(labels, pos, p) // reach the fixpoint once
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			canonicalize(labels, pos, p)
		}
	})
}

// BenchmarkObsOverhead measures the cost of the obs instrumentation on
// full multilevel HEC+sort runs: "disabled" is the production path (every
// span/counter call is a nil-check), "enabled" runs each op under a fresh
// trace carried by its context, as mlcg-serve traces every build. "deg6"
// is a degree-6 random graph whose dedup segments all stay on the
// insertion sort; "rgg" is serve-mixed's base graph (RGG, n = 10,000),
// whose coarse segments reach the radix path. The acceptance target is a
// disabled-path throughput delta within noise; the enabled-path cost is
// reported for the record (EXPERIMENTS.md), not bounded.
func BenchmarkObsOverhead(b *testing.B) {
	for _, in := range []struct {
		name string
		g    *graph.Graph
	}{
		{"deg6", bigTestGraph(100000, 5)},
		{"rgg", gen.RGG(10000, 0, 5)},
	} {
		c := &Coarsener{Mapper: HEC{}, Builder: BuildSort{}, Cutoff: 50, Seed: 42}
		b.Run(in.name+"/disabled", func(b *testing.B) {
			if obs.Enabled() {
				b.Fatal("trace unexpectedly active")
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.Run(in.g); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(in.name+"/enabled", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tr := obs.NewTrace("bench")
				_, err := c.RunCtx(obs.NewContext(context.Background(), tr), in.g)
				tr.Stop()
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkMapHEC(b *testing.B)    { benchMapWithRenumber(b, HEC{}) }
func BenchmarkMapHEM(b *testing.B)    { benchMapWithRenumber(b, HEM{}) }
func BenchmarkMapTwoHop(b *testing.B) { benchMapWithRenumber(b, TwoHop{}) }
func BenchmarkMapGOSH(b *testing.B)   { benchMapWithRenumber(b, GOSH{}) }

// The D2-MIS pair: same fixpoint, full-resweep vs worklist kernel. Run
// both (make bench-mis2) to read the worklist speedup off directly.
func BenchmarkMapMIS2(b *testing.B)     { benchMapWithRenumber(b, MIS2{}) }
func BenchmarkMapMIS2Fast(b *testing.B) { benchMapWithRenumber(b, MIS2Fast{}) }
