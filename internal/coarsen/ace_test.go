package coarsen

import (
	"math"
	"testing"

	"mlcg/internal/par"
)

func TestACESelectionIsDominating(t *testing.T) {
	for gname, g := range testGraphs() {
		res, err := ACE{}.Coarsen(g, 5, 2)
		if err != nil {
			t.Fatalf("%s: %v", gname, err)
		}
		// Every fine vertex is coarse or adjacent to a coarse vertex.
		for u := int32(0); u < g.NumV; u++ {
			if res.IsCoarse[u] {
				continue
			}
			found := false
			adj, _ := g.Neighbors(u)
			for _, v := range adj {
				if res.IsCoarse[v] {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%s: vertex %d not dominated", gname, u)
			}
		}
		// No two coarse representatives adjacent (independent set): the
		// greedy selection marks all neighbors as covered.
		for u := int32(0); u < g.NumV; u++ {
			if !res.IsCoarse[u] {
				continue
			}
			adj, _ := g.Neighbors(u)
			for _, v := range adj {
				if res.IsCoarse[v] {
					t.Errorf("%s: adjacent representatives %d,%d", gname, u, v)
				}
			}
		}
	}
}

func TestACEInterpolationIsStochastic(t *testing.T) {
	g := testGraphs()["grid8x9"]
	res, err := ACE{}.Coarsen(g, 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Column sums of P (= row sums of Pᵀ) are 1: each fine vertex's
	// interpolation weights form a convex combination.
	colSum := make([]float64, g.N())
	for i := int32(0); i < res.P.Rows; i++ {
		cs, vs := res.P.Row(i)
		for k, c := range cs {
			if vs[k] < 0 || vs[k] > 1+1e-12 {
				t.Fatalf("entry P[%d][%d]=%v out of [0,1]", i, c, vs[k])
			}
			colSum[c] += vs[k]
		}
	}
	for u, s := range colSum {
		if math.Abs(s-1) > 1e-9 {
			t.Errorf("column %d sums to %v, want 1", u, s)
		}
	}
}

func TestACECoarseGraphValidAndConserving(t *testing.T) {
	for gname, g := range testGraphs() {
		if g.N() < 4 {
			continue
		}
		res, err := ACE{}.Coarsen(g, 3, 2)
		if err != nil {
			t.Fatalf("%s: %v", gname, err)
		}
		if err := res.Coarse.Validate(); err != nil {
			t.Fatalf("%s: %v", gname, err)
		}
		if res.Coarse.N() >= g.N() {
			t.Errorf("%s: no reduction (%d -> %d)", gname, g.N(), res.Coarse.N())
		}
		if got, want := res.Coarse.TotalVertexWeight(), g.TotalVertexWeight(); got != want {
			t.Errorf("%s: vertex weight %d, want %d", gname, got, want)
		}
	}
}

func TestACEDensifies(t *testing.T) {
	// The paper's observation: ACE coarse graphs get denser (average
	// degree grows) faster than strict aggregation. Compare one level of
	// ACE against one level of HEC on a grid.
	g := testGraphs()["grid8x9"]
	res, err := ACE{}.Coarsen(g, 11, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := HEC{}.Map(g, 11, par.Exec{P: 1})
	if err != nil {
		t.Fatal(err)
	}
	hecCoarse, err := BuildSort{}.Build(g, m, par.Exec{P: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("one level on grid8x9: input n=%d avg degree %.2f; ACE n=%d avg degree %.2f; HEC n=%d avg degree %.2f",
		g.N(), g.AvgDegree(), res.Coarse.N(), res.Coarse.AvgDegree(), hecCoarse.N(), hecCoarse.AvgDegree())
	if res.Coarse.AvgDegree() <= g.AvgDegree() {
		t.Errorf("ACE coarse avg degree %.2f did not grow from %.2f",
			res.Coarse.AvgDegree(), g.AvgDegree())
	}
	// At about the same reduction, ACE's coarse graph is denser than HEC's.
	if aceDensity, hecDensity := res.Coarse.AvgDegree(), hecCoarse.AvgDegree(); aceDensity <= hecDensity {
		t.Errorf("ACE coarse avg degree %.2f does not exceed HEC's %.2f", aceDensity, hecDensity)
	}
}

func TestACEMinFracSparsifies(t *testing.T) {
	g := testGraphs()["clique12"]
	full, err := ACE{}.Coarsen(g, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := ACE{MinFrac: 0.4}.Coarsen(g, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sparse.P.NNZ() > full.P.NNZ() {
		t.Errorf("MinFrac increased interpolation nnz: %d > %d", sparse.P.NNZ(), full.P.NNZ())
	}
}

func TestACEInterpolateConstant(t *testing.T) {
	// Pᵀ is row-stochastic, so interpolating a constant vector gives the
	// same constant — the property that makes ACE projections preserve
	// the Laplacian null space.
	g := testGraphs()["rand200"]
	res, err := ACE{}.Coarsen(g, 9, 1)
	if err != nil {
		t.Fatal(err)
	}
	xc := make([]float64, res.Coarse.N())
	for i := range xc {
		xc[i] = 3.5
	}
	xf := res.Interpolate(xc)
	for u, v := range xf {
		if math.Abs(v-3.5) > 1e-9 {
			t.Fatalf("interpolated constant broke at %d: %v", u, v)
		}
	}
}

func TestACEEmptyGraph(t *testing.T) {
	g := testGraphs()["pair"]
	if _, err := (ACE{}).Coarsen(g, 1, 1); err != nil {
		t.Fatal(err)
	}
}
