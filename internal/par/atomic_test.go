package par

import "testing"

func TestAtomicMinInt32Sequential(t *testing.T) {
	x := int32(10)
	AtomicMinInt32Retries(&x, 12)
	if x != 10 {
		t.Errorf("min(10, 12) = %d", x)
	}
	AtomicMinInt32Retries(&x, 3)
	if x != 3 {
		t.Errorf("min(10, 3) = %d", x)
	}
	AtomicMinInt32Retries(&x, 3)
	if x != 3 {
		t.Errorf("min(3, 3) = %d", x)
	}
}

func TestAtomicMinInt32Concurrent(t *testing.T) {
	// Many workers hammer a small set of cells; the result must be the
	// true per-cell minimum regardless of scheduling.
	const n = 64
	const k = 100000
	cells := make([]int32, n)
	for i := range cells {
		cells[i] = int32(k + 1)
	}
	ForEach(k, Exec{P: 8}, func(i int) {
		AtomicMinInt32Retries(&cells[i%n], int32(i))
	})
	for c := 0; c < n; c++ {
		if cells[c] != int32(c) {
			t.Fatalf("cell %d = %d, want %d", c, cells[c], c)
		}
	}
}
