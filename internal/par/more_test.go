package par

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestReduceStructAccumulator(t *testing.T) {
	type stats struct {
		sum, max int64
		count    int64
	}
	n := 5000
	got := Reduce(n, Exec{P: 4}, stats{max: -1},
		func(acc stats, i int) stats {
			v := int64((i * 7) % 113)
			acc.sum += v
			acc.count++
			if v > acc.max {
				acc.max = v
			}
			return acc
		},
		func(a, b stats) stats {
			a.sum += b.sum
			a.count += b.count
			if b.max > a.max {
				a.max = b.max
			}
			return a
		})
	var want stats
	want.max = -1
	for i := 0; i < n; i++ {
		v := int64((i * 7) % 113)
		want.sum += v
		want.count++
		if v > want.max {
			want.max = v
		}
	}
	if got != want {
		t.Errorf("got %+v want %+v", got, want)
	}
}

func TestForChunkedWorkerIDsInRange(t *testing.T) {
	n := 10000
	p := 4
	var bad int32
	ForChunked(n, Exec{P: p}, 128, func(w, lo, hi int) {
		if w < 0 || w >= p {
			atomic.StoreInt32(&bad, int32(w)+1)
		}
	})
	if bad != 0 {
		t.Errorf("worker id out of range: %d", bad-1)
	}
}

func TestForZeroAndNegative(t *testing.T) {
	called := false
	For(0, Exec{P: 4}, func(_, _, _ int) { called = true })
	For(-5, Exec{P: 4}, func(_, _, _ int) { called = true })
	ForChunked(0, Exec{P: 4}, 16, func(_, _, _ int) { called = true })
	if called {
		t.Error("callback invoked for empty range")
	}
}

func TestPrefixSumQuickAgainstSequential(t *testing.T) {
	f := func(raw []int16) bool {
		src := make([]int64, len(raw))
		for i, v := range raw {
			src[i] = int64(v)
		}
		dst := make([]int64, len(src)+1)
		total := PrefixSumInt64(dst, src, Exec{P: 4})
		var sum int64
		for i, v := range src {
			if dst[i] != sum {
				return false
			}
			sum += v
		}
		return total == sum && dst[len(src)] == sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestRadixSortAllEqualKeys(t *testing.T) {
	n := 1 << 15
	keys := make([]uint64, n)
	vals := make([]uint64, n)
	for i := range keys {
		keys[i] = 42
		vals[i] = uint64(i)
	}
	RadixSortPairs(keys, vals, Exec{P: 4})
	// Equal keys + stability: values must remain in input order.
	for i := range vals {
		if vals[i] != uint64(i) {
			t.Fatalf("stability broken at %d", i)
		}
	}
}

func TestRadixSortExtremes(t *testing.T) {
	keys := []uint64{^uint64(0), 0, 1, ^uint64(0) - 1, 1 << 63}
	vals := []uint64{0, 1, 2, 3, 4}
	RadixSortPairs(keys, vals, Exec{P: 1})
	for i := 1; i < len(keys); i++ {
		if keys[i-1] > keys[i] {
			t.Fatalf("not sorted: %v", keys)
		}
	}
}

func TestSortPairsInt32NegativeKeys(t *testing.T) {
	// Negative keys must order correctly on both the insertion-sort path
	// (short inputs) and the sign-bit-flipped radix path (long inputs).
	for _, n := range []int{5, 300} {
		keys := make([]int32, n)
		wgts := make([]int64, n)
		st := uint64(uint(n))
		for i := range keys {
			keys[i] = int32(SplitMix64(&st)) % 1000 // mixed signs
			wgts[i] = int64(keys[i]) * 10
		}
		SortPairsInt32(keys, wgts, Exec{})
		for i := 1; i < n; i++ {
			if keys[i-1] > keys[i] {
				t.Fatalf("n=%d: not sorted at %d: %d > %d", n, i, keys[i-1], keys[i])
			}
		}
		for i := range keys {
			if wgts[i] != int64(keys[i])*10 {
				t.Fatalf("n=%d: weights decoupled at %d", n, i)
			}
		}
	}
}

func TestPackAll(t *testing.T) {
	got := Pack(100000, Exec{P: 8}, func(int) bool { return true })
	if len(got) != 100000 {
		t.Fatalf("len %d", len(got))
	}
	for i, v := range got {
		if int(v) != i {
			t.Fatalf("order broken at %d", i)
		}
	}
	if got := Pack(100000, Exec{P: 8}, func(int) bool { return false }); len(got) != 0 {
		t.Errorf("kept %d", len(got))
	}
}
