package par

// PrefixSumInt64 computes the exclusive prefix sum of src into dst, which
// must have len(src)+1 entries; dst[0] = 0 and dst[len(src)] is the total.
// The parallel version is a classic three-phase blocked scan: per-block
// sums, a sequential scan over the (small) block totals, then a per-block
// fill. Returns the total.
func PrefixSumInt64(dst, src []int64, ex Exec) int64 {
	n := len(src)
	if len(dst) != n+1 {
		panic("par: PrefixSumInt64 dst must have len(src)+1 entries")
	}
	p := Workers(ex.P, n)
	if n == 0 {
		dst[0] = 0
		return 0
	}
	if p == 1 || n < 4096 {
		var sum int64
		for i, v := range src {
			dst[i] = sum
			sum += v
		}
		dst[n] = sum
		return sum
	}
	blockSums := make([]int64, p)
	For(n, ex, func(w, lo, hi int) {
		var sum int64
		for i := lo; i < hi; i++ {
			sum += src[i]
		}
		blockSums[w] = sum
	})
	var total int64
	for w := 0; w < p; w++ {
		s := blockSums[w]
		blockSums[w] = total
		total += s
	}
	For(n, ex, func(w, lo, hi int) {
		sum := blockSums[w]
		for i := lo; i < hi; i++ {
			dst[i] = sum
			sum += src[i]
		}
	})
	dst[n] = total
	return total
}

// PrefixSumInt32 is PrefixSumInt64 for int32 counters with int64 offsets.
// dst must have len(src)+1 entries.
func PrefixSumInt32(dst []int64, src []int32, ex Exec) int64 {
	n := len(src)
	if len(dst) != n+1 {
		panic("par: PrefixSumInt32 dst must have len(src)+1 entries")
	}
	p := Workers(ex.P, n)
	if n == 0 {
		dst[0] = 0
		return 0
	}
	if p == 1 || n < 4096 {
		var sum int64
		for i, v := range src {
			dst[i] = sum
			sum += int64(v)
		}
		dst[n] = sum
		return sum
	}
	blockSums := make([]int64, p)
	For(n, ex, func(w, lo, hi int) {
		var sum int64
		for i := lo; i < hi; i++ {
			sum += int64(src[i])
		}
		blockSums[w] = sum
	})
	var total int64
	for w := 0; w < p; w++ {
		s := blockSums[w]
		blockSums[w] = total
		total += s
	}
	For(n, ex, func(w, lo, hi int) {
		sum := blockSums[w]
		for i := lo; i < hi; i++ {
			dst[i] = sum
			sum += int64(src[i])
		}
	})
	dst[n] = total
	return total
}

// ExclusiveScanInt32 computes the exclusive prefix sum of src into dst
// (dst[i] = src[0] + ... + src[i-1]) and returns the total. dst and src
// must have equal length and may alias — the scan is safe in place, which
// saves the second buffer when the input counters are no longer needed.
// The caller guarantees the total fits in int32 (true for any 0/1 flag
// array of addressable length).
func ExclusiveScanInt32(dst, src []int32, ex Exec) int32 {
	n := len(src)
	if len(dst) != n {
		panic("par: ExclusiveScanInt32 needs len(dst) == len(src)")
	}
	p := Workers(ex.P, n)
	if n == 0 {
		return 0
	}
	if p == 1 || n < 4096 {
		var sum int32
		for i := 0; i < n; i++ {
			v := src[i]
			dst[i] = sum
			sum += v
		}
		return sum
	}
	blockSums := make([]int32, p)
	For(n, ex, func(w, lo, hi int) {
		var sum int32
		for i := lo; i < hi; i++ {
			sum += src[i]
		}
		blockSums[w] = sum
	})
	var total int32
	for w := 0; w < p; w++ {
		s := blockSums[w]
		blockSums[w] = total
		total += s
	}
	For(n, ex, func(w, lo, hi int) {
		sum := blockSums[w]
		for i := lo; i < hi; i++ {
			v := src[i]
			dst[i] = sum
			sum += v
		}
	})
	return total
}

// MergeHistograms is the segmented cross-worker prefix sum behind the
// contention-free two-phase scatter: hists holds one bin-count histogram
// per worker (each of length nc), and for every bin a the call replaces
// the per-worker counts with their exclusive prefix across workers while
// accumulating the bin total into cnt[a]:
//
//	cnt[a]      = Σ_w hists[w][a]
//	hists[w][a] = Σ_{w'<w} old hists[w'][a]
//
// After a global exclusive prefix sum of cnt into base offsets r, worker w
// owns the write window [r[a]+hists[w][a], r[a]+hists[w][a]+count) of bin a
// and can scatter into it without atomics. Because workers own contiguous,
// ordered input ranges, the resulting bin contents are in global input
// order — independent of the worker count.
func MergeHistograms(hists [][]int32, cnt []int32, ex Exec) {
	nc := len(cnt)
	ForChunked(nc, ex, 2048, func(_, lo, hi int) {
		for a := lo; a < hi; a++ {
			var run int32
			for w := range hists {
				c := hists[w][a]
				hists[w][a] = run
				run += c
			}
			cnt[a] = run
		}
	})
}

// Pack writes the indices i in [0, n) for which keep(i) is true into a
// freshly allocated slice, preserving index order. This is the parallel
// stream-compaction used to gather unmapped vertices between passes of the
// lock-free HEC/HEM algorithms (Algorithm 4, lines 22-28).
func Pack(n int, ex Exec, keep func(i int) bool) []int32 {
	p := Workers(ex.P, n)
	if n == 0 {
		return nil
	}
	if p == 1 {
		var out []int32
		for i := 0; i < n; i++ {
			if keep(i) {
				out = append(out, int32(i))
			}
		}
		return out
	}
	counts := make([]int64, p)
	For(n, ex, func(w, lo, hi int) {
		var c int64
		for i := lo; i < hi; i++ {
			if keep(i) {
				c++
			}
		}
		counts[w] = c
	})
	offsets := make([]int64, p+1)
	total := PrefixSumInt64(offsets, counts, Exec{P: 1})
	out := make([]int32, total)
	For(n, ex, func(w, lo, hi int) {
		pos := offsets[w]
		for i := lo; i < hi; i++ {
			if keep(i) {
				out[pos] = int32(i)
				pos++
			}
		}
	})
	return out
}
