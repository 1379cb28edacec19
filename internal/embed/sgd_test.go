package embed

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"mlcg/internal/graph"
	"mlcg/internal/par"
)

// sameResult reports the first way two training results differ: the
// embedding bit for bit, then the step and negative counts.
func sameResult(got, want *Result) error {
	if got.Emb.N != want.Emb.N || got.Emb.Dim != want.Emb.Dim {
		return fmt.Errorf("embedding %dx%d, reference %dx%d", got.Emb.N, got.Emb.Dim, want.Emb.N, want.Emb.Dim)
	}
	for i := range want.Emb.Vecs {
		if a, b := math.Float32bits(got.Emb.Vecs[i]), math.Float32bits(want.Emb.Vecs[i]); a != b {
			return fmt.Errorf("Vecs[%d] = %v (%#x), reference %v (%#x)", i, got.Emb.Vecs[i], a, want.Emb.Vecs[i], b)
		}
	}
	if got.Steps != want.Steps || got.Negatives != want.Negatives {
		return fmt.Errorf("steps/negatives (%d, %d), reference (%d, %d)", got.Steps, got.Negatives, want.Steps, want.Negatives)
	}
	return nil
}

// TestTrainerMatchesReference pins the snapshot trainer to the per-slot
// delta trainer it replaced (sgd_ref_test.go): every detCases graph, both
// entry points, dim ∈ {1, 7, 32}, Negatives ∈ {1, 5, 20} and p ∈ {1, 2,
// 4, 8} give bit-identical embeddings, step and negative counts.
func TestTrainerMatchesReference(t *testing.T) {
	for _, tc := range detCases() {
		h := buildHierarchy(t, tc.g)
		for _, dim := range []int{1, 7, 32} {
			for _, negs := range []int{1, 5, 20} {
				opt := Options{Dim: dim, Epochs: 3, Negatives: negs, Seed: 17}
				wantH, err := refTrainHierarchy(h, opt)
				if err != nil {
					t.Fatal(err)
				}
				wantF, err := refTrainFlat(tc.g, 2, opt)
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range []int{1, 2, 4, 8} {
					opt.Workers = p
					got, err := TrainHierarchy(h, opt)
					if err != nil {
						t.Fatal(err)
					}
					if err := sameResult(got, wantH); err != nil {
						t.Fatalf("%s dim=%d negs=%d p=%d TrainHierarchy: %v", tc.name, dim, negs, p, err)
					}
					got, err = TrainFlat(tc.g, 2, opt)
					if err != nil {
						t.Fatal(err)
					}
					if err := sameResult(got, wantF); err != nil {
						t.Fatalf("%s dim=%d negs=%d p=%d TrainFlat: %v", tc.name, dim, negs, p, err)
					}
				}
			}
		}
	}
}

// FuzzTrainerMatchesReference trains small random graphs flat against the
// reference: 2–41 vertices, so some are isolated and leave runs of equal
// cum entries (zero-weight stretches of the negative table), dim 1–9,
// 1–24 negatives, 1–3 epochs and p ∈ {1, 2, 4, 8}.
func FuzzTrainerMatchesReference(f *testing.F) {
	f.Add([]byte{5, 3, 2, 0, 1, 1, 2, 2, 3, 3, 4}, uint64(1))
	f.Add([]byte{39, 8, 23, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6}, uint64(2))
	f.Add([]byte{1, 0, 0, 0, 1}, uint64(3))
	f.Add([]byte{16, 4, 5, 7, 8, 9, 12, 12, 13, 3, 15}, uint64(4))
	f.Fuzz(func(t *testing.T, data []byte, seed uint64) {
		if len(data) < 3 {
			return
		}
		n := int(data[0])%40 + 2
		dim := int(data[1])%9 + 1
		negs := int(data[2])%24 + 1
		var edges []graph.Edge
		for i := 3; i+1 < len(data); i += 2 {
			edges = append(edges, graph.Edge{U: int32(int(data[i]) % n), V: int32(int(data[i+1]) % n), W: 1})
		}
		g, err := graph.FromEdges(n, edges)
		if err != nil {
			t.Skip(err)
		}
		epochs := int(seed%3) + 1
		opt := Options{Dim: dim, Negatives: negs, Seed: seed, Workers: []int{1, 2, 4, 8}[(seed/3)%4]}
		want, err := refTrainFlat(g, epochs, opt)
		if err != nil {
			t.Fatal(err)
		}
		got, err := TrainFlat(g, epochs, opt)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameResult(got, want); err != nil {
			t.Fatal(err)
		}
	})
}

// cumOf is prepareLevel's negative table for a degree sequence.
func cumOf(degs []int) ([]float64, float64) {
	cum := make([]float64, len(degs))
	var running float64
	for i, d := range degs {
		running += math.Pow(float64(d), 0.75)
		cum[i] = running
	}
	return cum, running
}

// TestSampleNegMatchesSearch checks the guide-table lookup against
// sort.SearchFloat64s on the whole table: at every bucket boundary (the
// first and last draw of each bucket, where rounding decides the answer)
// and on random draws, for a uniform, a zero-padded, a one-hub and a
// single-vertex degree sequence.
func TestSampleNegMatchesSearch(t *testing.T) {
	hub := make([]int, 3000)
	for i := range hub {
		hub[i] = 1
	}
	hub[1234] = 1 << 20
	padded := make([]int, 257)
	for i := range padded {
		if i%5 == 0 {
			padded[i] = int(par.Mix64(uint64(i)) % 50)
		}
	}
	uniform := make([]int, 1000)
	for i := range uniform {
		uniform[i] = 6
	}
	for _, tc := range []struct {
		name string
		degs []int
	}{{"uniform", uniform}, {"padded", padded}, {"hub", hub}, {"single", []int{3}}} {
		ws := newWorkspace()
		ws.cum, ws.total = cumOf(tc.degs)
		ws.buildGuide()
		check := func(d uint64) {
			r := float64(d) / (1 << 53) * ws.total
			want := sort.SearchFloat64s(ws.cum, r)
			if want >= len(ws.cum) {
				want = len(ws.cum) - 1
			}
			if got := ws.lookup(d); int(got) != want {
				t.Fatalf("%s: draw %#x (r=%v): guide lookup %d, binary search %d", tc.name, d, r, got, want)
			}
		}
		buckets := uint64(len(ws.guide) - 1)
		width := uint64(1) << ws.guideShift
		for b := uint64(0); b < buckets; b++ {
			check(b * width)
			check(b*width + width - 1)
			check(b*width + width/2)
		}
		state := uint64(42)
		for i := 0; i < 20000; i++ {
			check(par.SplitMix64(&state) >> 11)
		}
	}
}
