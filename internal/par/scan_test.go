package par

import "testing"

func exclusiveScanRef(src []int32) ([]int32, int32) {
	out := make([]int32, len(src))
	var sum int32
	for i, v := range src {
		out[i] = sum
		sum += v
	}
	return out, sum
}

func TestExclusiveScanInt32MatchesSequential(t *testing.T) {
	for _, n := range []int{0, 1, 2, 100, 4095, 4096, 20000} {
		src := make([]int32, n)
		st := uint64(uint(n) + 11)
		for i := range src {
			src[i] = int32(SplitMix64(&st) % 50)
		}
		want, wantTotal := exclusiveScanRef(src)
		for _, p := range []int{1, 2, 4, 8} {
			dst := make([]int32, n)
			total := ExclusiveScanInt32(dst, src, Exec{P: p})
			if total != wantTotal {
				t.Fatalf("n=%d p=%d total=%d want %d", n, p, total, wantTotal)
			}
			for i := range want {
				if dst[i] != want[i] {
					t.Fatalf("n=%d p=%d dst[%d]=%d want %d", n, p, i, dst[i], want[i])
				}
			}
		}
	}
}

// The in-place contract (dst aliasing src) is what canonicalize relies on
// to scan its flag array without a second buffer.
func TestExclusiveScanInt32InPlace(t *testing.T) {
	for _, n := range []int{100, 20000} {
		src := make([]int32, n)
		st := uint64(uint(n) + 3)
		for i := range src {
			src[i] = int32(SplitMix64(&st) % 2)
		}
		want, wantTotal := exclusiveScanRef(src)
		for _, p := range []int{1, 8} {
			buf := make([]int32, n)
			copy(buf, src)
			total := ExclusiveScanInt32(buf, buf, Exec{P: p})
			if total != wantTotal {
				t.Fatalf("n=%d p=%d total=%d want %d", n, p, total, wantTotal)
			}
			for i := range want {
				if buf[i] != want[i] {
					t.Fatalf("n=%d p=%d buf[%d]=%d want %d", n, p, i, buf[i], want[i])
				}
			}
		}
	}
}

func TestExclusiveScanInt32PanicsOnBadDst(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched dst length")
		}
	}()
	ExclusiveScanInt32(make([]int32, 2), make([]int32, 3), Exec{P: 1})
}
