package coarsen

import (
	"fmt"
	"testing"

	"mlcg/internal/gen"
	"mlcg/internal/graph"
	"mlcg/internal/par"
)

// CheckCoarseInvariants asserts every structural property a coarse graph
// must satisfy regardless of which mapper, builder, or worker count
// produced it:
//
//   - CSR well-formedness: monotone offsets, in-range neighbor ids, no
//     self-loops, no duplicate columns per row
//   - canonical validity after sorting (graph.Validate: symmetry with
//     matching reverse weights, positive weights, sorted adjacency)
//   - vertex-weight conservation: Σ coarse VWgt == Σ fine VWgt
//   - edge-weight conservation modulo self-loop folding: the directed
//     coarse weight total equals the fine total minus the weight of edges
//     folded inside aggregates
//   - the projection identity: a coarse labelling (vertex id mod 3) cuts
//     exactly the weight its projection through the mapping cuts on the
//     fine graph, an int64 identity because construction sums weights
//
// The raw (pre-sort) checks run on the builder's output verbatim — some
// builders (hash, spgemm) legitimately emit unsorted rows, so
// sortedness is asserted on a copy.
func CheckCoarseInvariants(t *testing.T, fine *graph.Graph, m *Mapping, coarse *graph.Graph) {
	t.Helper()
	if err := coarseInvariantErr(fine, m, coarse); err != nil {
		t.Fatal(err)
	}
}

// coarseInvariantErr is CheckCoarseInvariants with an error return, usable
// from fuzz targets and non-test callers.
func coarseInvariantErr(fine *graph.Graph, m *Mapping, coarse *graph.Graph) error {
	if coarse.NumV != m.NC {
		return fmt.Errorf("coarse vertex count %d, mapping says %d", coarse.NumV, m.NC)
	}
	if len(coarse.Xadj) != int(coarse.NumV)+1 {
		return fmt.Errorf("xadj length %d, want %d", len(coarse.Xadj), coarse.NumV+1)
	}
	if coarse.Xadj[0] != 0 {
		return fmt.Errorf("xadj[0] = %d", coarse.Xadj[0])
	}
	nnz := coarse.Xadj[coarse.NumV]
	if int64(len(coarse.Adj)) != nnz || int64(len(coarse.Wgt)) != nnz {
		return fmt.Errorf("adj/wgt lengths %d/%d, xadj says %d", len(coarse.Adj), len(coarse.Wgt), nnz)
	}
	seen := make(map[int32]bool)
	for u := int32(0); u < coarse.NumV; u++ {
		if coarse.Xadj[u+1] < coarse.Xadj[u] {
			return fmt.Errorf("xadj not monotone at %d", u)
		}
		adj, _ := coarse.Neighbors(u)
		for k := range seen {
			delete(seen, k)
		}
		for _, v := range adj {
			if v < 0 || v >= coarse.NumV {
				return fmt.Errorf("vertex %d: neighbor %d out of range", u, v)
			}
			if v == u {
				return fmt.Errorf("vertex %d: self-loop survived construction", u)
			}
			if seen[v] {
				return fmt.Errorf("vertex %d: duplicate column %d", u, v)
			}
			seen[v] = true
		}
	}

	// Canonical battery (sortedness, symmetry, positive weights) on a copy
	// so the caller's graph keeps the builder's raw output order.
	norm := &graph.Graph{
		NumV: coarse.NumV,
		Xadj: append([]int64(nil), coarse.Xadj...),
		Adj:  append([]int32(nil), coarse.Adj...),
		Wgt:  append([]int64(nil), coarse.Wgt...),
		VWgt: coarse.VWgt,
	}
	norm.SortAdjacency(1)
	if err := norm.Validate(); err != nil {
		return fmt.Errorf("canonicalized coarse graph invalid: %w", err)
	}

	var fineVW, coarseVW int64
	for u := int32(0); u < fine.NumV; u++ {
		fineVW += fine.VertexWeight(u)
	}
	for a := int32(0); a < coarse.NumV; a++ {
		coarseVW += coarse.VertexWeight(a)
	}
	if fineVW != coarseVW {
		return fmt.Errorf("vertex weight not conserved: fine %d, coarse %d", fineVW, coarseVW)
	}

	var fineEW, coarseEW int64
	for _, w := range fine.Wgt {
		fineEW += w
	}
	for _, w := range coarse.Wgt {
		coarseEW += w
	}
	if want := fineEW - 2*intraWeight(fine, m); coarseEW != want {
		return fmt.Errorf("edge weight not conserved: coarse %d, want fine %d - folded %d = %d",
			coarseEW, fineEW, fineEW-want, want)
	}

	// A cut is half the directed weight total minus the weight inside
	// labels. Labelling coarse vertex a with a mod 3 and projecting it
	// onto the fine graph keeps the cut exactly.
	labels := make([]int32, coarse.NumV)
	for a := range labels {
		labels[a] = int32(a % 3)
	}
	fineLabels := Project(labels, m.M, par.Exec{P: 2})
	coarseCut := coarseEW/2 - intraWeight(coarse, &Mapping{M: labels})
	if fineCut := fineEW/2 - intraWeight(fine, &Mapping{M: fineLabels}); coarseCut != fineCut {
		return fmt.Errorf("projection changed the cut: coarse labelling cuts %d, its projection %d", coarseCut, fineCut)
	}
	return nil
}

// invariantInstances picks the gen-suite slice the harness sweeps: small
// enough that 12 mappers × all builders × the worker grid stays tractable
// under -race, while covering one regular and one densifying skewed
// instance.
func invariantInstances(t *testing.T) []gen.Instance {
	t.Helper()
	names := map[string]bool{"channel050": true, "mycielskian17": true}
	if testing.Short() {
		// The race-enabled CI pass runs -short; the dense mycielskian17
		// analog costs ~5× channel050 per build there.
		delete(names, "mycielskian17")
	}
	var out []gen.Instance
	for _, inst := range gen.DefaultSuite() {
		if names[inst.Name] {
			out = append(out, inst)
		}
	}
	if len(out) == 0 {
		t.Fatal("no invariant suite instances found")
	}
	return out
}

// TestCoarseInvariants sweeps every mapper × builder (including the auto
// policy) × worker count over the invariant suite and checks every
// produced coarse graph. This is the blast-radius test for the adaptive
// dispatch surface: any (mapper, builder, p) cell that violates CSR shape,
// conservation, or symmetry fails with its exact coordinates.
func TestCoarseInvariants(t *testing.T) {
	workers := []int{1, 4, 8}
	if testing.Short() {
		workers = []int{1, 4}
	}
	mappers := allMappers(t)
	builders := allBuilders(t)
	for _, inst := range invariantInstances(t) {
		g := inst.Graph
		g.MaterializeVWgt()
		for _, mapper := range mappers {
			m, err := mapper.Map(g, 42, par.Exec{P: 2})
			if err != nil {
				t.Fatalf("%s/%s: %v", inst.Name, mapper.Name(), err)
			}
			if err := m.Validate(g.N()); err != nil {
				t.Fatalf("%s/%s: %v", inst.Name, mapper.Name(), err)
			}
			for _, b := range builders {
				for _, p := range workers {
					t.Run(fmt.Sprintf("%s/%s/%s/p%d", inst.Name, mapper.Name(), b.Name(), p), func(t *testing.T) {
						cg, err := b.Build(g, m, par.Exec{P: p})
						if err != nil {
							t.Fatal(err)
						}
						CheckCoarseInvariants(t, g, m, cg)
					})
				}
			}
		}
	}
}

// TestCoarseInvariantsMultilevel runs the auto policy through full
// hierarchies and checks the invariants at every level, so decisions made
// on already-coarsened (denser, skewed-shifted) graphs are covered too —
// exactly where the policy switches builders mid-hierarchy.
func TestCoarseInvariantsMultilevel(t *testing.T) {
	for _, inst := range invariantInstances(t) {
		g := inst.Graph
		g.MaterializeVWgt()
		c := &Coarsener{Mapper: HEC{}, Builder: &AutoConstruct{}, Seed: 7, Workers: 4}
		h, err := c.Run(g)
		if err != nil {
			t.Fatal(err)
		}
		for i := range h.Maps {
			m := &Mapping{M: h.Maps[i], NC: h.Graphs[i+1].NumV}
			CheckCoarseInvariants(t, h.Graphs[i], m, h.Graphs[i+1])
			if got := h.Stats[i].Builder; got == "" || got == "auto" {
				t.Errorf("%s level %d: LevelStats.Builder = %q, want a dispatched builder name", inst.Name, i, got)
			}
			if h.Stats[i].BuildReason == "" {
				t.Errorf("%s level %d: LevelStats.BuildReason empty", inst.Name, i)
			}
		}
	}
}
