package coarsen

import (
	"testing"

	"mlcg/internal/par"
)

// decodeHostileMaps builds a chain of level maps from fuzz bytes. Every map
// is in-range (entries mod the coarse size) but the shapes are hostile:
// stalled levels that do not reduce at all, total collapses to a single
// aggregate, empty levels, and arbitrary irregular fan-in. Returns the maps
// (finest first, Maps[i] maps level i onto level i+1) and the coarsest
// vertex count.
func decodeHostileMaps(in []byte) (maps [][]int32, coarsestN int) {
	rd := 0
	next := func() byte {
		if rd < len(in) {
			b := in[rd]
			rd++
			return b
		}
		return 0
	}
	levels := int(next()) % 5
	n := int(next()) % 40 // finest size; 0 produces the empty chain
	for l := 0; l < levels; l++ {
		var nc int
		switch next() % 4 {
		case 0:
			nc = n // stalled: no reduction this level
		case 1:
			if n > 0 {
				nc = 1 // total collapse to a singleton aggregate
			}
		case 2:
			nc = (n + 1) / 2 // the well-behaved halving shape
		default:
			if n > 0 {
				nc = int(next())%n + 1 // arbitrary reduction
			}
		}
		m := make([]int32, n)
		for u := 0; u < n; u++ {
			if nc > 0 {
				m[u] = int32(int(next()) % nc)
			}
		}
		maps = append(maps, m)
		n = nc
	}
	return maps, n
}

// FuzzProjectToFine drives Hierarchy.ProjectToFine with degenerate level
// maps — stalled (identity-size) levels, singleton collapses, empty
// coarsest, ragged chains — and checks it against a trivial sequential
// reference and against the composed-map shortcut (projecting through the
// composed fine-to-coarsest map must agree with level-by-level projection).
func FuzzProjectToFine(f *testing.F) {
	f.Add([]byte{1, 8, 0, 1, 2, 3, 4, 5, 6, 7, 0, 9, 9})    // one stalled level
	f.Add([]byte{2, 6, 1, 3, 3, 3, 3, 3, 3, 0, 7})          // collapse then stall
	f.Add([]byte{3, 0, 2, 2, 2})                            // empty everywhere
	f.Add([]byte{4, 39, 2, 2, 2, 2})                        // deep halving chain
	f.Add([]byte{1, 5, 3, 2, 0, 1, 0, 1, 0, 255, 254, 253}) // irregular fan-in
	f.Add([]byte{0, 17, 42})                                // no levels at all
	f.Fuzz(func(t *testing.T, in []byte) {
		maps, nc := decodeHostileMaps(in)
		// Labels on the coarsest level: arbitrary values derived from the
		// input so mutations explore the payload too.
		coarsest := make([]int32, nc)
		for i := range coarsest {
			coarsest[i] = int32(i * 3)
			if len(in) > 0 {
				coarsest[i] += int32(in[i%len(in)])
			}
		}

		h := &Hierarchy{Maps: maps}
		got := h.ProjectToFine(coarsest)

		// Sequential reference: walk the maps coarsest-to-finest.
		want := coarsest
		for i := len(maps) - 1; i >= 0; i-- {
			m := maps[i]
			fine := make([]int32, len(m))
			for u := range m {
				fine[u] = want[m[u]]
			}
			want = fine
		}
		if len(got) != len(want) {
			t.Fatalf("projected length %d, reference %d", len(got), len(want))
		}
		for u := range want {
			if got[u] != want[u] {
				t.Fatalf("vertex %d: projected %d, reference %d", u, got[u], want[u])
			}
		}

		// Composition property: one hop through the composed map must agree.
		if len(maps) > 0 {
			composed := maps[0]
			for i := 1; i < len(maps); i++ {
				composed = Project(maps[i], composed, par.Exec{P: 2})
			}
			for u := range composed {
				if got[u] != coarsest[composed[u]] {
					t.Fatalf("vertex %d: level-by-level %d, composed-map %d",
						u, got[u], coarsest[composed[u]])
				}
			}
		}
	})
}

// TestProjectToFineDegenerate pins the named degenerate shapes directly so
// they are exercised on every `go test` run, not only under -fuzz.
func TestProjectToFineDegenerate(t *testing.T) {
	t.Run("no levels", func(t *testing.T) {
		h := &Hierarchy{}
		in := []int32{4, 5, 6}
		got := h.ProjectToFine(in)
		if len(got) != 3 || got[0] != 4 || got[1] != 5 || got[2] != 6 {
			t.Errorf("zero-level projection changed the input: %v", got)
		}
	})
	t.Run("stalled identity level", func(t *testing.T) {
		h := &Hierarchy{Maps: [][]int32{{0, 1, 2, 3}}}
		got := h.ProjectToFine([]int32{9, 8, 7, 6})
		for u, want := range []int32{9, 8, 7, 6} {
			if got[u] != want {
				t.Fatalf("identity map permuted labels: %v", got)
			}
		}
	})
	t.Run("singleton coarsest", func(t *testing.T) {
		h := &Hierarchy{Maps: [][]int32{{0, 0, 0, 0, 0}}}
		got := h.ProjectToFine([]int32{42})
		for u, v := range got {
			if v != 42 {
				t.Fatalf("vertex %d got %d, want 42", u, v)
			}
		}
	})
	t.Run("empty coarsest", func(t *testing.T) {
		h := &Hierarchy{Maps: [][]int32{{}}}
		got := h.ProjectToFine([]int32{})
		if len(got) != 0 {
			t.Errorf("empty chain projected to %d labels", len(got))
		}
	})
	t.Run("levels of size one throughout", func(t *testing.T) {
		h := &Hierarchy{Maps: [][]int32{{0}, {0}, {0}}}
		got := h.ProjectToFine([]int32{-1})
		if len(got) != 1 || got[0] != -1 {
			t.Errorf("unit chain projection = %v, want [-1]", got)
		}
	})
}
