// Package par is a small shared-memory parallel runtime used by every other
// package in this module. It stands in for the Kokkos layer the paper builds
// on: parallel loops (static and dynamically scheduled), parallel prefix
// sums, reductions, a parallel LSD radix sort, and a sort-based parallel
// random permutation (Algorithm 4, line 1 of the paper).
//
// All entry points accept an explicit worker count p; p <= 0 means
// runtime.GOMAXPROCS(0). With p == 1 every routine degenerates to the plain
// sequential loop, which the benchmark harness uses as the "host" baseline.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mlcg/internal/obs"
)

// Workers normalizes a requested worker count: values <= 0 become
// runtime.GOMAXPROCS(0), and the result is never larger than n (no point
// spawning workers with empty ranges) but always at least 1.
func Workers(p, n int) int {
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if n < 1 {
		n = 1
	}
	if p > n {
		p = n
	}
	if p < 1 {
		p = 1
	}
	return p
}

// For runs fn over [0, n) split into p statically scheduled contiguous
// blocks. fn receives the worker index and its half-open range. Static
// scheduling is the analogue of Kokkos RangePolicy and is right for loops
// with uniform per-iteration cost.
func For(n, p int, fn func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	p = Workers(p, n)
	span := obs.Ambient()
	if p == 1 {
		if span != nil {
			t0 := time.Now()
			fn(0, 0, n)
			span.BusyAdd(0, time.Since(t0))
			return
		}
		fn(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	wg.Add(p)
	for w := 0; w < p; w++ {
		lo := w * n / p
		hi := (w + 1) * n / p
		go func(w, lo, hi int) {
			defer wg.Done()
			if lo >= hi {
				return
			}
			if span != nil {
				obsWorker(span, w, func() { fn(w, lo, hi) })
				return
			}
			fn(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
}

// ForChunked runs fn over [0, n) with dynamic scheduling: workers repeatedly
// claim chunks of the given size from a shared atomic counter. This is the
// analogue of Kokkos dynamic scheduling and is the right policy for loops
// with skewed per-iteration cost (adjacency scans over skewed-degree
// graphs). chunk <= 0 picks a heuristic chunk size.
func ForChunked(n, p, chunk int, fn func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	p = Workers(p, n)
	if chunk <= 0 {
		chunk = n / (8 * p)
		if chunk < 64 {
			chunk = 64
		}
	}
	// Never spawn more workers than there are chunks to claim: a frontier
	// smaller than one chunk runs inline on the caller's goroutine, which is
	// what makes worklist tail rounds (tiny frontiers, many rounds) cheap.
	if nchunks := (n + chunk - 1) / chunk; p > nchunks {
		p = nchunks
	}
	span := obs.Ambient()
	if p == 1 {
		if span != nil {
			t0 := time.Now()
			fn(0, 0, n)
			span.BusyAdd(0, time.Since(t0))
			return
		}
		fn(0, 0, n)
		return
	}
	// The workers capture an unmodified copy of chunk: capturing the
	// reassigned parameter itself would move it to the heap on every call,
	// the inline path above included.
	step := chunk
	var next int64
	var wg sync.WaitGroup
	wg.Add(p)
	for w := 0; w < p; w++ {
		go func(w int) {
			defer wg.Done()
			loop := func() {
				for {
					lo := int(atomic.AddInt64(&next, int64(step))) - step
					if lo >= n {
						return
					}
					hi := lo + step
					if hi > n {
						hi = n
					}
					fn(w, lo, hi)
				}
			}
			if span != nil {
				obsWorker(span, w, loop)
				return
			}
			loop()
		}(w)
	}
	wg.Wait()
}

// ForEach runs fn(i) for every i in [0, n) with static scheduling.
func ForEach(n, p int, fn func(i int)) {
	For(n, p, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}

// ForEachChunked runs fn(i) for every i in [0, n) with dynamic scheduling.
func ForEachChunked(n, p, chunk int, fn func(i int)) {
	ForChunked(n, p, chunk, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}

// ForEachChunkedWorker is ForEachChunked with the worker index exposed, for
// element-wise loops that append to per-worker buffers (frontier and
// worklist construction). The worker index is always < Workers(p, n).
func ForEachChunkedWorker(n, p, chunk int, fn func(worker, i int)) {
	ForChunked(n, p, chunk, func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(w, i)
		}
	})
}
