// Package par is a small shared-memory parallel runtime used by every other
// package in this module. It stands in for the Kokkos layer the paper builds
// on: parallel loops (static and dynamically scheduled), parallel prefix
// sums, reductions, a parallel LSD radix sort, and a sort-based parallel
// random permutation (Algorithm 4, line 1 of the paper).
//
// Every entry point that runs a parallel loop takes an Exec, the analogue
// of the execution policy a Kokkos parallel_for receives: the worker count
// P (P <= 0 means runtime.GOMAXPROCS(0)) and the obs span the loop's
// workers charge their busy time to (nil when untraced). With P == 1 every
// routine degenerates to the plain sequential loop, which the benchmark
// harness uses as the "host" baseline.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mlcg/internal/obs"
)

// Exec is the execution handle of a parallel call: how many workers run
// it and which span they report to. The zero value is an untraced loop on
// GOMAXPROCS workers. Kernels open a sub-span with Kernel and hand the
// returned handle to their loops, so every loop charges the span its
// caller was in without any lookup.
type Exec struct {
	P    int
	Span *obs.Span
}

// Kernel opens a child span of ex.Span named name and returns the handle
// for the kernel's loops; the caller closes it with Span.End. On an
// untraced handle it returns ex unchanged and allocates nothing.
func (ex Exec) Kernel(name string) Exec {
	ex.Span = ex.Span.Child(name)
	return ex
}

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
func For(n int, ex Exec, fn func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	p := Workers(ex.P, n)
	span := ex.Span
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
func ForChunked(n int, ex Exec, chunk int, fn func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	p := Workers(ex.P, n)
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
	span := ex.Span
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
func ForEach(n int, ex Exec, fn func(i int)) {
	For(n, ex, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}

// ForEachChunked runs fn(i) for every i in [0, n) with dynamic scheduling.
func ForEachChunked(n int, ex Exec, chunk int, fn func(i int)) {
	ForChunked(n, ex, chunk, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}
