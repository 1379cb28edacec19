package par

// Contention-free scatter support: work-balanced contiguous range
// partitioning plus the range-parallel loop that pins one worker per
// range. Together with MergeHistograms (scan.go) these realize the
// owner-computes two-phase scatter used by coarse-graph construction:
// count into per-worker histograms, turn counts into exact per-worker
// write offsets, then scatter with zero atomics.
//
// Determinism note: ForRanges workers own contiguous index ranges ordered
// by worker id, so any scatter that appends each range's contributions
// after the previous range's reproduces the sequential (p == 1) placement
// exactly — bin contents are byte-identical for every worker count.

import (
	"sort"
	"time"

	"mlcg/internal/obs"
)

// BalancedRanges splits [0, n) into p contiguous ranges of approximately
// equal prefix mass, where prefix is a monotone array with len(prefix) ==
// n+1 and prefix[i] the cumulative work before item i (a CSR Xadj array is
// exactly this shape). The returned boundary slice b has p+1 entries with
// b[0] == 0 and b[p] == n; range w is [b[w], b[w]). bounds is an optional
// reusable backing slice. Empty ranges are possible when p > n or the mass
// is concentrated.
func BalancedRanges(bounds []int, prefix []int64, p int) []int {
	n := len(prefix) - 1
	if p < 1 {
		p = 1
	}
	if cap(bounds) < p+1 {
		bounds = make([]int, p+1)
	}
	bounds = bounds[:p+1]
	total := prefix[n]
	bounds[0] = 0
	for w := 1; w < p; w++ {
		target := prefix[0] + total*int64(w)/int64(p)
		// First index whose cumulative mass reaches the target.
		lo := sort.Search(n, func(i int) bool { return prefix[i+1] > target })
		if lo < bounds[w-1] {
			lo = bounds[w-1]
		}
		bounds[w] = lo
	}
	bounds[p] = n
	return bounds
}

// ForRanges runs fn once per range of the boundary slice produced by
// BalancedRanges, one worker per range. Unlike ForChunked the assignment
// of indices to workers is fixed by the boundaries, which scatter passes
// rely on: the counting pass and the writing pass must see identical
// (worker, range) pairs. Workers charge their busy time to span (nil when
// untraced).
func ForRanges(bounds []int, span *obs.Span, fn func(w, lo, hi int)) {
	p := len(bounds) - 1
	if p <= 0 {
		return
	}
	if p == 1 {
		if bounds[0] < bounds[1] {
			if span != nil {
				t0 := time.Now()
				fn(0, bounds[0], bounds[1])
				span.BusyAdd(0, time.Since(t0))
				return
			}
			fn(0, bounds[0], bounds[1])
		}
		return
	}
	done := make(chan struct{}, p)
	for w := 0; w < p; w++ {
		go func(w int) {
			if bounds[w] < bounds[w+1] {
				if span != nil {
					obsWorker(span, w, func() { fn(w, bounds[w], bounds[w+1]) })
				} else {
					fn(w, bounds[w], bounds[w+1])
				}
			}
			done <- struct{}{}
		}(w)
	}
	for w := 0; w < p; w++ {
		<-done
	}
}
