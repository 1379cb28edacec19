package par

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestWorkers(t *testing.T) {
	cases := []struct{ p, n, min, max int }{
		{1, 100, 1, 1},
		{4, 100, 4, 4},
		{8, 3, 1, 3},
		{0, 100, 1, 1 << 20}, // GOMAXPROCS-dependent; just bounds
		{-1, 0, 1, 1},
	}
	for _, c := range cases {
		got := Workers(c.p, c.n)
		if got < c.min || got > c.max {
			t.Errorf("Workers(%d,%d) = %d, want in [%d,%d]", c.p, c.n, got, c.min, c.max)
		}
	}
}

func TestForCoversRangeOnce(t *testing.T) {
	for _, p := range []int{1, 2, 3, 7, 16} {
		for _, n := range []int{0, 1, 5, 1000} {
			hits := make([]int32, n)
			For(n, Exec{P: p}, func(_, lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("p=%d n=%d: index %d visited %d times", p, n, i, h)
				}
			}
		}
	}
}

func TestForChunkedCoversRangeOnce(t *testing.T) {
	for _, p := range []int{1, 2, 8} {
		for _, chunk := range []int{0, 1, 7, 1024} {
			n := 5000
			hits := make([]int32, n)
			ForChunked(n, Exec{P: p}, chunk, func(_, lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("p=%d chunk=%d: index %d visited %d times", p, chunk, i, h)
				}
			}
		}
	}
}

func TestForEachSum(t *testing.T) {
	n := 10000
	var sum int64
	ForEach(n, Exec{P: 8}, func(i int) { atomic.AddInt64(&sum, int64(i)) })
	want := int64(n) * int64(n-1) / 2
	if sum != want {
		t.Errorf("sum = %d, want %d", sum, want)
	}
}

func TestPrefixSumInt64MatchesSequential(t *testing.T) {
	for _, n := range []int{0, 1, 2, 100, 4096, 10000} {
		src := make([]int64, n)
		st := uint64(42)
		for i := range src {
			src[i] = int64(SplitMix64(&st) % 1000)
		}
		want := make([]int64, n+1)
		var sum int64
		for i, v := range src {
			want[i] = sum
			sum += v
		}
		want[n] = sum
		for _, p := range []int{1, 4, 16} {
			dst := make([]int64, n+1)
			total := PrefixSumInt64(dst, src, Exec{P: p})
			if total != sum {
				t.Fatalf("n=%d p=%d total=%d want %d", n, p, total, sum)
			}
			for i := range want {
				if dst[i] != want[i] {
					t.Fatalf("n=%d p=%d dst[%d]=%d want %d", n, p, i, dst[i], want[i])
				}
			}
		}
	}
}

func TestPrefixSumInt32MatchesSequential(t *testing.T) {
	n := 9000
	src := make([]int32, n)
	st := uint64(7)
	for i := range src {
		src[i] = int32(SplitMix64(&st) % 100)
	}
	dst1 := make([]int64, n+1)
	dst8 := make([]int64, n+1)
	t1 := PrefixSumInt32(dst1, src, Exec{P: 1})
	t8 := PrefixSumInt32(dst8, src, Exec{P: 8})
	if t1 != t8 {
		t.Fatalf("totals differ: %d vs %d", t1, t8)
	}
	for i := range dst1 {
		if dst1[i] != dst8[i] {
			t.Fatalf("dst[%d]: %d vs %d", i, dst1[i], dst8[i])
		}
	}
}

func TestPrefixSumPanicsOnBadDst(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong dst length")
		}
	}()
	PrefixSumInt64(make([]int64, 3), make([]int64, 3), Exec{P: 1})
}

func TestPack(t *testing.T) {
	for _, p := range []int{1, 4} {
		got := Pack(10, Exec{P: p}, func(i int) bool { return i%3 == 0 })
		want := []int32{0, 3, 6, 9}
		if len(got) != len(want) {
			t.Fatalf("p=%d: got %v want %v", p, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("p=%d: got %v want %v", p, got, want)
			}
		}
	}
	if got := Pack(0, Exec{P: 4}, func(int) bool { return true }); len(got) != 0 {
		t.Errorf("Pack(0) = %v, want empty", got)
	}
	// Large input exercises the parallel path.
	got := Pack(100000, Exec{P: 8}, func(i int) bool { return i%2 == 1 })
	if len(got) != 50000 {
		t.Fatalf("len = %d, want 50000", len(got))
	}
	for k, v := range got {
		if int(v) != 2*k+1 {
			t.Fatalf("got[%d] = %d, want %d", k, v, 2*k+1)
		}
	}
}

func TestReduceAndHelpers(t *testing.T) {
	n := 12345
	sum := SumInt64(n, Exec{P: 8}, func(i int) int64 { return int64(i) })
	if want := int64(n) * int64(n-1) / 2; sum != want {
		t.Errorf("SumInt64 = %d, want %d", sum, want)
	}
	max := MaxInt64(n, Exec{P: 8}, -1, func(i int) int64 { return int64(i % 997) })
	if max != 996 {
		t.Errorf("MaxInt64 = %d, want 996", max)
	}
	if got := MaxInt64(0, Exec{P: 8}, -5, func(i int) int64 { return 0 }); got != -5 {
		t.Errorf("MaxInt64 empty = %d, want identity -5", got)
	}
	cnt := CountInt64(n, Exec{P: 8}, func(i int) bool { return i%5 == 0 })
	if want := int64((n + 4) / 5); cnt != want {
		t.Errorf("CountInt64 = %d, want %d", cnt, want)
	}
}

func TestFillAndCopy(t *testing.T) {
	a := make([]int32, 5000)
	Fill(a, 7, Exec{P: 8})
	for i, v := range a {
		if v != 7 {
			t.Fatalf("a[%d] = %d", i, v)
		}
	}
	b := make([]int32, 5000)
	Copy(b, a, Exec{P: 8})
	for i, v := range b {
		if v != 7 {
			t.Fatalf("b[%d] = %d", i, v)
		}
	}
}

func TestCopyPanicsOnShortDst(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Copy(make([]int, 1), make([]int, 2), Exec{P: 1})
}

func TestSplitMix64Known(t *testing.T) {
	// Reference values from the public-domain splitmix64.c with seed 0.
	st := uint64(0)
	want := []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f}
	for i, w := range want {
		if got := SplitMix64(&st); got != w {
			t.Fatalf("output %d = %#x, want %#x", i, got, w)
		}
	}
}

func TestRNGDeterministicAndSpread(t *testing.T) {
	a, b := NewRNG(1), NewRNG(1)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	c := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds matched %d/100 outputs", same)
	}
	// Intn stays in range and hits all residues eventually.
	r := NewRNG(3)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Errorf("Intn(7) hit only %d residues in 1000 draws", len(seen))
	}
	for i := 0; i < 1000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGSplitIndependent(t *testing.T) {
	r := NewRNG(9)
	s := r.Split()
	if r.Uint64() == s.Uint64() {
		t.Error("split stream equals parent stream")
	}
}

func TestRadixSortPairsSorted(t *testing.T) {
	for _, n := range []int{0, 1, 2, 100, 1 << 14, 50000} {
		for _, p := range []int{1, 8} {
			keys := make([]uint64, n)
			vals := make([]uint64, n)
			st := uint64(uint(n)*31 + uint(p))
			for i := range keys {
				keys[i] = SplitMix64(&st)
				vals[i] = keys[i] ^ 0xabcdef // value tied to key for checking
			}
			RadixSortPairs(keys, vals, Exec{P: p})
			for i := 1; i < n; i++ {
				if keys[i-1] > keys[i] {
					t.Fatalf("n=%d p=%d not sorted at %d", n, p, i)
				}
			}
			for i := range keys {
				if vals[i] != keys[i]^0xabcdef {
					t.Fatalf("n=%d p=%d value decoupled from key at %d", n, p, i)
				}
			}
		}
	}
}

func TestRadixSortPairsStable(t *testing.T) {
	// Many duplicate keys; values record original order.
	n := 40000
	keys := make([]uint64, n)
	vals := make([]uint64, n)
	st := uint64(5)
	for i := range keys {
		keys[i] = SplitMix64(&st) % 16
		vals[i] = uint64(i)
	}
	RadixSortPairs(keys, vals, Exec{P: 8})
	for i := 1; i < n; i++ {
		if keys[i-1] == keys[i] && vals[i-1] > vals[i] {
			t.Fatalf("instability at %d: key %d order %d > %d", i, keys[i], vals[i-1], vals[i])
		}
	}
}

func TestRadixSortPairsQuick(t *testing.T) {
	f := func(in []uint64) bool {
		keys := append([]uint64(nil), in...)
		vals := make([]uint64, len(keys))
		for i := range vals {
			vals[i] = keys[i]
		}
		RadixSortPairs(keys, vals, Exec{P: 4})
		for i := 1; i < len(keys); i++ {
			if keys[i-1] > keys[i] {
				return false
			}
		}
		for i := range keys {
			if vals[i] != keys[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSortPairsInt32(t *testing.T) {
	for _, n := range []int{0, 1, 2, 10, 48, 49, 100, 500} {
		keys := make([]int32, n)
		wgts := make([]int64, n)
		st := uint64(uint(n) + 99)
		for i := range keys {
			keys[i] = int32(SplitMix64(&st) % 64)
			wgts[i] = int64(keys[i]) * 10
		}
		SortPairsInt32(keys, wgts, Exec{})
		for i := 1; i < n; i++ {
			if keys[i-1] > keys[i] {
				t.Fatalf("n=%d: not sorted at %d", n, i)
			}
		}
		for i := range keys {
			if wgts[i] != int64(keys[i])*10 {
				t.Fatalf("n=%d: weight decoupled at %d", n, i)
			}
		}
	}
}

func TestRandPermIsPermutation(t *testing.T) {
	for _, n := range []int{0, 1, 2, 1000, 1 << 15} {
		for _, p := range []int{1, 8} {
			perm := RandPerm(n, 12345, Exec{P: p})
			if len(perm) != n {
				t.Fatalf("len = %d, want %d", len(perm), n)
			}
			seen := make([]bool, n)
			for _, v := range perm {
				if v < 0 || int(v) >= n || seen[v] {
					t.Fatalf("n=%d p=%d: not a permutation (element %d)", n, p, v)
				}
				seen[v] = true
			}
		}
	}
}

func TestRandPermSeedSensitivity(t *testing.T) {
	a := RandPerm(1000, 1, Exec{P: 1})
	b := RandPerm(1000, 2, Exec{P: 1})
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same > 50 { // expectation is ~1 fixed point
		t.Errorf("different seeds agree on %d/1000 positions", same)
	}
	// Same seed must reproduce regardless of parallelism: the sort is by
	// unique random keys, so the order is seed-determined.
	c := RandPerm(1000, 1, Exec{P: 8})
	for i := range a {
		if a[i] != c[i] {
			t.Fatalf("seeded permutation differs between p=1 and p=8 at %d", i)
		}
	}
}

func TestInversePerm(t *testing.T) {
	perm := RandPerm(500, 3, Exec{P: 4})
	inv := InversePerm(perm, Exec{P: 4})
	for i, v := range perm {
		if inv[v] != int32(i) {
			t.Fatalf("inv[perm[%d]] = %d, want %d", i, inv[v], i)
		}
	}
}

func TestMix64Distinct(t *testing.T) {
	seen := make(map[uint64]bool)
	for i := uint64(0); i < 10000; i++ {
		h := Mix64(i)
		if seen[h] {
			t.Fatalf("collision at %d", i)
		}
		seen[h] = true
	}
}
