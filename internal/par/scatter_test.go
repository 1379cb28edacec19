package par

import (
	"testing"
)

func TestBalancedRanges(t *testing.T) {
	// CSR-style prefix with one huge item in the middle.
	deg := []int64{1, 1, 1, 100, 1, 1, 1, 1}
	n := len(deg)
	prefix := make([]int64, n+1)
	for i, d := range deg {
		prefix[i+1] = prefix[i] + d
	}
	for p := 1; p <= 6; p++ {
		b := BalancedRanges(nil, prefix, p)
		if len(b) != p+1 || b[0] != 0 || b[p] != n {
			t.Fatalf("p=%d: bad bounds %v", p, b)
		}
		for w := 0; w < p; w++ {
			if b[w] > b[w+1] {
				t.Fatalf("p=%d: non-monotone bounds %v", p, b)
			}
		}
	}
	// The heavy item must not share a range with all the others when p >= 2.
	b := BalancedRanges(nil, prefix, 2)
	if b[1] == 0 || b[1] == n {
		t.Errorf("p=2: heavy item not isolated: %v", b)
	}
}

func TestBalancedRangesReuse(t *testing.T) {
	prefix := []int64{0, 1, 2, 3, 4}
	buf := make([]int, 8)
	b := BalancedRanges(buf, prefix, 3)
	if &b[0] != &buf[0] {
		t.Error("BalancedRanges did not reuse the provided backing slice")
	}
}

func TestForRangesCoversExactlyOnce(t *testing.T) {
	n := 1000
	prefix := make([]int64, n+1)
	for i := 0; i < n; i++ {
		prefix[i+1] = prefix[i] + int64(i%17)
	}
	for _, p := range []int{1, 2, 5, 16, 40} {
		bounds := BalancedRanges(nil, prefix, p)
		hits := make([]int32, n)
		ForRanges(bounds, nil, func(w, lo, hi int) {
			for i := lo; i < hi; i++ {
				hits[i]++
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("p=%d: index %d visited %d times", p, i, h)
			}
		}
	}
}

func TestMergeHistograms(t *testing.T) {
	nc, p := 300, 4
	hists := make([][]int32, p)
	want := make([]int32, nc)
	st := uint64(99)
	for w := range hists {
		hists[w] = make([]int32, nc)
		for a := 0; a < nc; a++ {
			hists[w][a] = int32(SplitMix64(&st) % 7)
			want[a] += hists[w][a]
		}
	}
	// Keep a copy to verify the exclusive prefix property.
	orig := make([][]int32, p)
	for w := range hists {
		orig[w] = append([]int32(nil), hists[w]...)
	}
	cnt := make([]int32, nc)
	MergeHistograms(hists, cnt, Exec{P: p})
	for a := 0; a < nc; a++ {
		if cnt[a] != want[a] {
			t.Fatalf("cnt[%d] = %d, want %d", a, cnt[a], want[a])
		}
		var run int32
		for w := 0; w < p; w++ {
			if hists[w][a] != run {
				t.Fatalf("hists[%d][%d] = %d, want %d", w, a, hists[w][a], run)
			}
			run += orig[w][a]
		}
	}
}

// TestTwoPhaseScatterOrder pins the determinism contract: scattering via
// BalancedRanges + MergeHistograms places bin contents in global input
// order regardless of the worker count.
func TestTwoPhaseScatterOrder(t *testing.T) {
	n, nc := 5000, 37
	bin := make([]int32, n)
	st := uint64(7)
	for i := range bin {
		bin[i] = int32(SplitMix64(&st) % uint64(nc))
	}
	prefix := make([]int64, n+1)
	for i := 0; i < n; i++ {
		prefix[i+1] = prefix[i] + 1
	}
	var ref []int32
	for _, p := range []int{1, 2, 3, 8} {
		bounds := BalancedRanges(nil, prefix, p)
		hists := make([][]int32, p)
		for w := range hists {
			hists[w] = make([]int32, nc)
		}
		ForRanges(bounds, nil, func(w, lo, hi int) {
			for i := lo; i < hi; i++ {
				hists[w][bin[i]]++
			}
		})
		cnt := make([]int32, nc)
		MergeHistograms(hists, cnt, Exec{P: p})
		r := make([]int64, nc+1)
		PrefixSumInt32(r, cnt, Exec{P: p})
		out := make([]int32, n)
		ForRanges(bounds, nil, func(w, lo, hi int) {
			h := hists[w]
			for i := lo; i < hi; i++ {
				a := bin[i]
				out[r[a]+int64(h[a])] = int32(i)
				h[a]++
			}
		})
		if ref == nil {
			ref = out
			continue
		}
		for i := range out {
			if out[i] != ref[i] {
				t.Fatalf("p=%d: scatter order differs from p=1 at slot %d", p, i)
			}
		}
	}
}
