package coarsen

import (
	"mlcg/internal/obs"
	"mlcg/internal/par"
)

// canonicalize is the shared canonical-renumbering kernel behind the
// schedule-independence guarantee of every mapper (see DESIGN.md,
// "Canonical coarse IDs"): it rewrites an arbitrary complete labeling into
// the unique canonical one, in O(n) work on the existing par primitives.
//
// On entry m[u] holds any label in [0, len(m)) — root vertex ids for most
// mappers, but the labels need not be compact and carry no meaning beyond
// partitioning the vertices. On return every aggregate is relabeled by the
// rank of its minimum pos[] entry (the random-permutation position of its
// earliest member) among all aggregates, so ids are dense in [0, nc) and
// ascend with the permutation order of the aggregates' first members.
// Returns nc.
//
// pos must be a permutation of [0, n); nil means the identity (aggregates
// ordered by minimum member vertex id), which mappers without a random
// visit order (MIS2) use.
//
// The kernel runs a handful of O(n) passes over two int32 scratch arrays:
//
//  1. minPos[a] = min over members u of a of pos[u]. The scatter uses
//     par.AtomicMinInt32, which is order-insensitive (min is commutative),
//     so the array is identical for every worker count and interleaving —
//     the one place the kernel touches an atomic.
//  2. flag[q] = 1 iff q == minPos[a] for some aggregate a. Distinct
//     aggregates have distinct minimum positions (pos is a permutation and
//     aggregates partition the vertices), so every write targets a
//     distinct cell: no atomics.
//  3. An in-place exclusive prefix sum over flag yields, at each flagged
//     position, the number of aggregates whose minimum position is
//     smaller — exactly the canonical id.
//  4. minPos[a] = flag[minPos[a]] rewrites the per-aggregate minimum into
//     the aggregate's canonical id (sequential read/write, one gather),
//     so the final relabel m[u] = minPos[m[u]] is a single race-free
//     gather per vertex instead of two dependent ones.
func canonicalize(m []int32, pos []int32, ex par.Exec) int32 {
	n := len(m)
	if n == 0 {
		return 0
	}
	// The passes run as range loops (par.For, not the per-element ForEach
	// wrappers): the kernel rides on every mapper's critical path, and at
	// ~n iterations per pass the per-element closure calls would cost more
	// than the passes themselves. Positions are stored biased by -n, i.e.
	// minPos[a] holds minpos(a)-n in [-n, -1] with 0 meaning "no member
	// seen": the zero value make() provides is then already the identity
	// of min, which saves the explicit +inf fill pass.
	ex = ex.Kernel("canonicalize")
	span := ex.Span
	defer span.End()
	nn := int32(n)
	minPos := make([]int32, n)
	switch {
	case par.Workers(ex.P, n) == 1:
		// Single worker: a plain min computes the identical array without
		// the atomic's load/CAS cost.
		if pos == nil {
			for i := 0; i < n; i++ {
				if a, v := m[i], int32(i)-nn; v < minPos[a] {
					minPos[a] = v
				}
			}
		} else {
			for i := 0; i < n; i++ {
				if a, v := m[i], pos[i]-nn; v < minPos[a] {
					minPos[a] = v
				}
			}
		}
	case pos == nil:
		par.For(n, ex, func(_, lo, hi int) {
			var retries int64
			for i := lo; i < hi; i++ {
				retries += par.AtomicMinInt32Retries(&minPos[m[i]], int32(i)-nn)
			}
			span.Add(obs.CtrCASRetry, retries)
		})
	default:
		par.For(n, ex, func(_, lo, hi int) {
			var retries int64
			for i := lo; i < hi; i++ {
				retries += par.AtomicMinInt32Retries(&minPos[m[i]], pos[i]-nn)
			}
			span.Add(obs.CtrCASRetry, retries)
		})
	}
	flag := make([]int32, n) // zeroed by make
	par.For(n, ex, func(_, lo, hi int) {
		for a := lo; a < hi; a++ {
			if v := minPos[a]; v < 0 {
				flag[v+nn] = 1
			}
		}
	})
	nc := par.ExclusiveScanInt32(flag, flag, ex)
	par.For(n, ex, func(_, lo, hi int) {
		for a := lo; a < hi; a++ {
			if v := minPos[a]; v < 0 {
				minPos[a] = flag[v+nn]
			}
		}
	})
	par.For(n, ex, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			m[i] = minPos[m[i]]
		}
	})
	return nc
}
