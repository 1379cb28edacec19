package coarsen

import (
	"testing"

	"mlcg/internal/graph"
	"mlcg/internal/par"
)

// rawEqual compares the CSR arrays verbatim — unlike graph.Equal it does
// NOT canonicalize adjacency order, so it detects any scheduling-dependent
// permutation of the output.
func rawEqual(a, b *graph.Graph) bool {
	if a.NumV != b.NumV ||
		len(a.Xadj) != len(b.Xadj) || len(a.Adj) != len(b.Adj) ||
		len(a.Wgt) != len(b.Wgt) || len(a.VWgt) != len(b.VWgt) {
		return false
	}
	for i := range a.Xadj {
		if a.Xadj[i] != b.Xadj[i] {
			return false
		}
	}
	for i := range a.Adj {
		if a.Adj[i] != b.Adj[i] || a.Wgt[i] != b.Wgt[i] {
			return false
		}
	}
	for i := range a.VWgt {
		if a.VWgt[i] != b.VWgt[i] {
			return false
		}
	}
	return true
}

// TestBuildDeterministicAcrossWorkers pins the central guarantee of the
// two-phase scatter: every builder emits a byte-identical coarse CSR
// (including adjacency order, not just the canonicalized graph) for every
// worker count, and reusing a dirty workspace must not change the output.
func TestBuildDeterministicAcrossWorkers(t *testing.T) {
	builders := allBuilders(t)
	for gname, g := range testGraphs() {
		g.MaterializeVWgt()
		m, err := HEC{}.Map(g, 42, par.Exec{P: 2})
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range builders {
			ref, err := b.Build(g, m, par.Exec{P: 1})
			if err != nil {
				t.Fatalf("%s/%s p=1: %v", gname, b.Name(), err)
			}
			// One workspace left dirty across all worker counts (and, via
			// the outer loops, across graphs): reuse must not leak state.
			dirty := NewWorkspace()
			for _, p := range []int{1, 2, 4, 8} {
				fresh, err := b.Build(g, m, par.Exec{P: p})
				if err != nil {
					t.Fatalf("%s/%s p=%d: %v", gname, b.Name(), p, err)
				}
				if !rawEqual(ref, fresh) {
					t.Fatalf("%s/%s: p=%d output differs from p=1 (fresh workspace)", gname, b.Name(), p)
				}
				reused, err := b.BuildWith(dirty, g, m, par.Exec{P: p})
				if err != nil {
					t.Fatalf("%s/%s p=%d reused ws: %v", gname, b.Name(), p, err)
				}
				if !rawEqual(ref, reused) {
					t.Fatalf("%s/%s: p=%d output differs from p=1 (reused workspace)", gname, b.Name(), p)
				}
			}
		}
	}
}

// TestBuildDeterministicAcrossWorkersBig repeats the cross-p check on a
// graph large enough that edge-balanced ranges genuinely differ per p.
func TestBuildDeterministicAcrossWorkersBig(t *testing.T) {
	g := bigTestGraph(3000, 17)
	g.MaterializeVWgt()
	m, err := HEC{}.Map(g, 9, par.Exec{P: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range allBuilders(t) {
		ref, err := b.Build(g, m, par.Exec{P: 1})
		if err != nil {
			t.Fatalf("%s: %v", b.Name(), err)
		}
		for _, p := range []int{2, 4, 8} {
			got, err := b.Build(g, m, par.Exec{P: p})
			if err != nil {
				t.Fatalf("%s p=%d: %v", b.Name(), p, err)
			}
			if !rawEqual(ref, got) {
				t.Fatalf("%s: p=%d output differs from p=1", b.Name(), p)
			}
		}
	}
}

// TestBuildWithSteadyStateAllocs pins the workspace payoff: once the arena
// has warmed up, a construction level allocates only the output CSR plus a
// constant handful of escaping closures — O(1) allocations, independent of
// graph size, where builders without a workspace allocate O(m) scratch
// every level.
func TestBuildWithSteadyStateAllocs(t *testing.T) {
	g := bigTestGraph(2000, 3)
	g.MaterializeVWgt()
	m, err := HEC{}.Map(g, 42, par.Exec{P: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range allBuilders(t) {
		if b.Name() == "spgemm" || b.Name() == "globalsort" {
			// The SpGEMM kernel manages its own scratch and the global-sort
			// baseline grows its output slices incrementally; neither is
			// part of the steady-state guarantee.
			continue
		}
		ws := NewWorkspace()
		// Warm up the arena.
		if _, err := b.BuildWith(ws, g, m, par.Exec{P: 1}); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := b.BuildWith(ws, g, m, par.Exec{P: 1}); err != nil {
				t.Error(err)
			}
		})
		// Output graph: Xadj, Adj, Wgt, VWgt, the Graph struct itself, plus
		// a few escaping closure headers. Anything near O(m) (thousands of
		// edges here) means the workspace is not actually being reused.
		if allocs > 32 {
			t.Errorf("%s: %v allocs per warm BuildWith, want ≤ 32", b.Name(), allocs)
		}
	}
}
