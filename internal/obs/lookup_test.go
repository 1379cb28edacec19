package obs_test

import (
	"context"
	"testing"

	"mlcg/internal/coarsen"
	"mlcg/internal/gen"
	"mlcg/internal/graph"
	"mlcg/internal/obs"
)

// tracedLookups runs fn with a fresh trace, as mlcg-serve gives each
// build one, and returns the goroutine lookups fn made and the trace's
// counter totals.
func tracedLookups(t *testing.T, fn func(tr *obs.Trace) error) (int64, map[string]int64) {
	t.Helper()
	tr := obs.NewTrace("build")
	before := obs.Lookups()
	err := fn(tr)
	n := obs.Lookups() - before
	tr.Stop()
	if err != nil {
		t.Fatal(err)
	}
	return n, tr.Root.Counters()
}

// TestTracedRunLookups bounds how often a traced serve-shaped build (RGG
// with n = 10,000, HEC + sort, cutoff 50) resolves its goroutine. Lookups
// belong at span boundaries: span opens, one per parallel call and one per
// spawned worker. A flush per chunk or per sorted segment would put the
// count far past the cap, since Algorithm 6's dedup radix-sorts hundreds of
// coarse segments on this graph.
func TestTracedRunLookups(t *testing.T) {
	g := gen.RGG(10000, 0, 1)
	for _, tc := range []struct {
		p   int
		max int64
	}{{1, 250}, {2, 500}} {
		n, ctr := tracedLookups(t, func(tr *obs.Trace) error {
			c := coarsen.Coarsener{Mapper: coarsen.HEC{}, Builder: coarsen.BuildSort{}, Cutoff: 50, Seed: 7, Workers: tc.p}
			_, err := c.RunCtx(obs.NewContext(context.Background(), tr), g)
			return err
		})
		if ctr["radix_passes"] == 0 {
			t.Fatalf("p=%d: no radix passes; the graph no longer reaches the radix path", tc.p)
		}
		if n > tc.max {
			t.Errorf("p=%d: traced run made %d goroutine lookups, want at most %d", tc.p, n, tc.max)
		}
		t.Logf("p=%d: %d lookups, %d radix passes", tc.p, n, ctr["radix_passes"])
	}
}

// stars returns k disjoint stars of 60 leaves each: every center's
// adjacency is longer than the insertion-sort limit, so the sort builder
// radix-sorts exactly k segments under the identity mapping.
func stars(k int) *graph.Graph {
	const leaves = 60
	var e []graph.Edge
	for s := 0; s < k; s++ {
		c := int32(s * (leaves + 1))
		for j := int32(1); j <= leaves; j++ {
			e = append(e, graph.Edge{U: c, V: c + j, W: 1})
		}
	}
	return graph.MustFromEdges(k*(leaves+1), e)
}

// TestLookupsIndependentOfSortedSegments pins the flush rule directly: a
// traced sort build of twice as many radix-sorted segments makes exactly
// as many goroutine lookups.
func TestLookupsIndependentOfSortedSegments(t *testing.T) {
	for _, p := range []int{1, 2} {
		var lookups [2]int64
		var passes [2]int64
		for i, k := range []int{200, 400} {
			g := stars(k)
			id := &coarsen.Mapping{M: make([]int32, g.N()), NC: g.NumV}
			for v := range id.M {
				id.M[v] = int32(v)
			}
			n, ctr := tracedLookups(t, func(tr *obs.Trace) error {
				defer tr.Attach()()
				_, err := coarsen.BuildSort{}.Build(g, id, p)
				return err
			})
			lookups[i], passes[i] = n, ctr["radix_passes"]
		}
		if passes[0] < 200 || passes[1] < 400 {
			t.Fatalf("p=%d: radix_passes %d and %d, want at least one per star center", p, passes[0], passes[1])
		}
		if lookups[1] != lookups[0] {
			t.Errorf("p=%d: %d lookups for %d radix passes but %d for %d; lookups must not grow with sorted segments",
				p, lookups[0], passes[0], lookups[1], passes[1])
		}
	}
}
