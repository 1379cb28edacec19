package par

// Reduce folds fn over [0, n) in parallel: each worker folds its block with
// fold starting from identity, then the per-worker partials are combined
// sequentially with combine. This mirrors Kokkos parallel_reduce.
func Reduce[T any](n int, ex Exec, identity T, fold func(acc T, i int) T, combine func(a, b T) T) T {
	p := Workers(ex.P, n)
	if n == 0 {
		return identity
	}
	if p == 1 {
		acc := identity
		for i := 0; i < n; i++ {
			acc = fold(acc, i)
		}
		return acc
	}
	partials := make([]T, p)
	For(n, ex, func(w, lo, hi int) {
		acc := identity
		for i := lo; i < hi; i++ {
			acc = fold(acc, i)
		}
		partials[w] = acc
	})
	acc := identity
	for _, v := range partials {
		acc = combine(acc, v)
	}
	return acc
}

// SumInt64 returns the sum of fn(i) over [0, n).
func SumInt64(n int, ex Exec, fn func(i int) int64) int64 {
	return Reduce(n, ex, 0, func(acc int64, i int) int64 { return acc + fn(i) },
		func(a, b int64) int64 { return a + b })
}

// MaxInt64 returns the maximum of fn(i) over [0, n), or identity when n==0.
func MaxInt64(n int, ex Exec, identity int64, fn func(i int) int64) int64 {
	return Reduce(n, ex, identity,
		func(acc int64, i int) int64 {
			if v := fn(i); v > acc {
				return v
			}
			return acc
		},
		func(a, b int64) int64 {
			if a > b {
				return a
			}
			return b
		})
}

// CountInt64 returns the number of i in [0, n) for which pred(i) holds.
func CountInt64(n int, ex Exec, pred func(i int) bool) int64 {
	return SumInt64(n, ex, func(i int) int64 {
		if pred(i) {
			return 1
		}
		return 0
	})
}

// Fill sets dst[i] = v for all i, in parallel.
func Fill[T any](dst []T, v T, ex Exec) {
	For(len(dst), ex, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] = v
		}
	})
}

// Copy copies src into dst (which must be at least as long), in parallel.
func Copy[T any](dst, src []T, ex Exec) {
	if len(dst) < len(src) {
		panic("par: Copy dst shorter than src")
	}
	For(len(src), ex, func(_, lo, hi int) {
		copy(dst[lo:hi], src[lo:hi])
	})
}
