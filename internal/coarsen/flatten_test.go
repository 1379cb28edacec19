package coarsen

import (
	"testing"

	"mlcg/internal/graph"
	"mlcg/internal/par"
)

func TestComposeMaps(t *testing.T) {
	fineToMid := []int32{0, 0, 1, 2, 1}
	midToCoarse := []int32{1, 0, 1}
	got := Project(midToCoarse, fineToMid, par.Exec{P: 2})
	want := []int32{1, 1, 0, 1, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("compose[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestFlattenMatchesProjection(t *testing.T) {
	g := bigTestGraph(1200, 3)
	c := &Coarsener{Mapper: HEC{}, Builder: BuildSort{}, Seed: 5, Workers: 2}
	h, err := c.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	flat := h.Flatten()
	if err := flat.Validate(g.N()); err != nil {
		t.Fatal(err)
	}
	if flat.NC != h.Coarsest().NumV {
		t.Fatalf("flat NC %d != coarsest %d", flat.NC, h.Coarsest().NumV)
	}
	// Flatten must equal projecting coarse identities down.
	ids := make([]int32, h.Coarsest().N())
	for i := range ids {
		ids[i] = int32(i)
	}
	proj := h.ProjectToFine(ids)
	for u := range proj {
		if proj[u] != flat.M[u] {
			t.Fatalf("mismatch at %d: %d vs %d", u, proj[u], flat.M[u])
		}
	}
	// Building with the flattened mapping reproduces the coarsest graph.
	direct, err := BuildSort{}.Build(g, flat, par.Exec{P: 2})
	if err != nil {
		t.Fatal(err)
	}
	direct.SortAdjacency(1)
	want := h.Coarsest().Clone()
	want.SortAdjacency(1)
	// Contraction is associative: one-shot contraction with the composed
	// mapping must reproduce the multilevel result exactly.
	if !graph.Equal(direct, want) {
		t.Error("flattened one-shot contraction differs from the multilevel result")
	}
}

func TestFlattenIdentityOnTrivialHierarchy(t *testing.T) {
	g := testGraphs()["pair"]
	c := &Coarsener{Mapper: HEC{}, Builder: BuildSort{}, Cutoff: 1000} // no levels
	h, err := c.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	flat := h.Flatten()
	if flat.NC != g.NumV {
		t.Errorf("NC = %d", flat.NC)
	}
	for i, v := range flat.M {
		if v != int32(i) {
			t.Errorf("not identity at %d", i)
		}
	}
}
