package obs_test

import (
	"runtime"
	"testing"

	"mlcg/internal/coarsen"
	"mlcg/internal/graph"
	"mlcg/internal/obs"
	"mlcg/internal/par"
)

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

// TestTracedBuildAllocsIndependentOfSortedSegments pins the flush rule: a
// traced sort build of twice as many radix-sorted segments makes exactly
// as many allocations, so no kernel opens a span or allocates per sorted
// segment.
func TestTracedBuildAllocsIndependentOfSortedSegments(t *testing.T) {
	var allocs [2]float64
	for i, k := range []int{200, 400} {
		g := stars(k)
		id := &coarsen.Mapping{M: make([]int32, g.N()), NC: g.NumV}
		for v := range id.M {
			id.M[v] = int32(v)
		}
		var tr *obs.Trace
		// A collection that starts mid-measurement adds the runtime's own
		// mallocs to the count, so start from a fresh cycle.
		runtime.GC()
		allocs[i] = testing.AllocsPerRun(20, func() {
			tr = obs.NewTrace("build")
			if _, err := (coarsen.BuildSort{}).Build(g, id, par.Exec{P: 1, Span: tr.Root}); err != nil {
				t.Fatal(err)
			}
			tr.Stop()
		})
		if passes := tr.Root.Counters()["radix_passes"]; passes < int64(k) {
			t.Fatalf("stars(%d): %d radix passes, want at least one per star center", k, passes)
		}
	}
	if allocs[0] != allocs[1] {
		t.Errorf("traced build makes %v allocations for 200 sorted segments but %v for 400", allocs[0], allocs[1])
	}
	t.Logf("%v allocations per traced build", allocs[0])
}
