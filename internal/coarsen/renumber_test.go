package coarsen

import (
	"testing"

	"mlcg/internal/par"
)

func TestCanonicalizeBasic(t *testing.T) {
	// Labels are arbitrary root ids; pos is the identity, so aggregates
	// are numbered by minimum member index: {0,2} -> 0, {1,3,4} -> 1.
	m := []int32{2, 4, 2, 4, 4}
	pos := []int32{0, 1, 2, 3, 4}
	nc := canonicalize(m, pos, par.Exec{P: 1})
	want := []int32{0, 1, 0, 1, 1}
	if nc != 2 {
		t.Fatalf("nc = %d, want 2", nc)
	}
	for i := range m {
		if m[i] != want[i] {
			t.Fatalf("m = %v, want %v", m, want)
		}
	}
}

func TestCanonicalizeOrdersByPosition(t *testing.T) {
	// Same membership, but pos reverses the visit order: the aggregate
	// containing the minimum position (vertex 4 here) gets id 0.
	m := []int32{2, 4, 2, 4, 4}
	pos := []int32{4, 3, 2, 1, 0}
	nc := canonicalize(m, pos, par.Exec{P: 1})
	want := []int32{1, 0, 1, 0, 0}
	if nc != 2 {
		t.Fatalf("nc = %d, want 2", nc)
	}
	for i := range m {
		if m[i] != want[i] {
			t.Fatalf("m = %v, want %v", m, want)
		}
	}
}

func TestCanonicalizeNilPosIsIdentity(t *testing.T) {
	m := []int32{3, 3, 0, 0, 3}
	nc := canonicalize(m, nil, par.Exec{P: 2})
	// Aggregate {0,1,4} has min member 0 -> id 0; {2,3} -> id 1.
	want := []int32{0, 0, 1, 1, 0}
	if nc != 2 {
		t.Fatalf("nc = %d, want 2", nc)
	}
	for i := range m {
		if m[i] != want[i] {
			t.Fatalf("m = %v, want %v", m, want)
		}
	}
}

func TestCanonicalizeEmptyAndSingleton(t *testing.T) {
	if nc := canonicalize(nil, nil, par.Exec{P: 4}); nc != 0 {
		t.Errorf("empty: nc = %d", nc)
	}
	m := []int32{0}
	if nc := canonicalize(m, nil, par.Exec{P: 4}); nc != 1 || m[0] != 0 {
		t.Errorf("singleton: nc = %d, m = %v", nc, m)
	}
}

func TestCanonicalizeIdempotent(t *testing.T) {
	// Canonical labels fed back in (with the same pos) must be a fixpoint:
	// the benchmark relies on this to re-run the kernel without copies.
	n := 5000
	m := make([]int32, n)
	rng := par.NewRNG(17)
	for i := range m {
		m[i] = int32(rng.Intn(n))
	}
	// Make the labeling "rooted" enough to be a valid partition label set
	// (any values work — canonicalize only partitions by equal labels).
	pos := par.InversePerm(par.RandPerm(n, 99, par.Exec{P: 1}), par.Exec{P: 1})
	nc1 := canonicalize(m, pos, par.Exec{P: 4})
	snap := append([]int32(nil), m...)
	nc2 := canonicalize(m, pos, par.Exec{P: 4})
	if nc1 != nc2 {
		t.Fatalf("nc changed on second pass: %d vs %d", nc1, nc2)
	}
	for i := range m {
		if m[i] != snap[i] {
			t.Fatalf("labels changed on second pass at %d", i)
		}
	}
}

func TestCanonicalizeWorkerCountInvariant(t *testing.T) {
	n := 20000
	rng := par.NewRNG(5)
	base := make([]int32, n)
	for i := range base {
		base[i] = int32(rng.Intn(n / 3))
	}
	pos := par.InversePerm(par.RandPerm(n, 7, par.Exec{P: 1}), par.Exec{P: 1})

	ref := append([]int32(nil), base...)
	refNC := canonicalize(ref, pos, par.Exec{P: 1})
	if refNC <= 0 || refNC > int32(n/3) {
		t.Fatalf("implausible nc %d", refNC)
	}
	for _, p := range []int{2, 4, 8} {
		m := append([]int32(nil), base...)
		nc := canonicalize(m, pos, par.Exec{P: p})
		if nc != refNC {
			t.Fatalf("p=%d: nc %d != %d", p, nc, refNC)
		}
		for i := range m {
			if m[i] != ref[i] {
				t.Fatalf("p=%d: label differs at %d", p, i)
			}
		}
	}
}

func TestCanonicalizeCompact(t *testing.T) {
	// Output ids must be dense in [0, nc) regardless of how sparse the
	// input labels were.
	n := 1000
	m := make([]int32, n)
	for i := range m {
		m[i] = int32((i / 7) * 7) // labels 0, 7, 14, ... each shared by 7
	}
	nc := canonicalize(m, nil, par.Exec{P: 3})
	seen := make([]bool, nc)
	for _, a := range m {
		if a < 0 || a >= nc {
			t.Fatalf("label %d outside [0,%d)", a, nc)
		}
		seen[a] = true
	}
	for a, ok := range seen {
		if !ok {
			t.Fatalf("id %d unused", a)
		}
	}
}
