package coarsen

import (
	"fmt"
	"math"

	"mlcg/internal/graph"
	"mlcg/internal/obs"
	"mlcg/internal/par"
	"mlcg/internal/spmat"
)

// ACE implements the weighted-aggregation coarsening of the ACE multiscale
// graph-drawing system (Koren, Carmel, Harel; tech-report Algorithm 8).
// Unlike the strict aggregation schemes, ACE permits many-to-many
// mappings: a representative subset of vertices becomes the coarse set,
// and every remaining vertex is interpolated fractionally across its
// coarse neighbors in proportion to edge weight. The coarse matrix is the
// triple product P·A·Pᵀ with the real-valued interpolation matrix P.
//
// The paper evaluated ACE in preliminary experiments and found that it
// "quickly makes the coarse graphs dense" (Section II) — reproduced here;
// see the tests — and left sparsification for future work, so ACE is not
// part of the Mapper registry (its mapping is not many-to-one). MinFrac
// optionally drops interpolation entries below the given fraction to
// limit densification.
type ACE struct {
	// MinFrac drops interpolation weights below this fraction of a
	// vertex's total coupling (0 keeps everything, as in plain ACE).
	MinFrac float64
}

// ACEResult is the outcome of one ACE coarsening level.
type ACEResult struct {
	// Coarse is the coarse graph. Edge weights are the P·A·Pᵀ values
	// rounded half-up with a floor of 1 (ACE produces real weights; the
	// module's graphs carry integer weights).
	Coarse *graph.Graph
	// P is the nc×n real interpolation matrix (row sums over fine columns
	// are 1 per fine vertex across rows: Pᵀ is row-stochastic).
	P *spmat.CSR
	// CoarseOf maps each coarse vertex to the fine representative it was
	// seeded from.
	CoarseOf []int32
	// IsCoarse flags the representative fine vertices.
	IsCoarse []bool
}

// Coarsen performs one ACE coarsening level.
func (a ACE) Coarsen(g *graph.Graph, seed uint64, p int) (*ACEResult, error) {
	n := g.N()
	if n == 0 {
		return &ACEResult{
			Coarse: g,
			P:      &spmat.CSR{Rowptr: []int64{0}},
		}, nil
	}

	// Representative selection: visit in random order; a vertex joins the
	// coarse set unless it is already strongly coupled to it (has a
	// coarse neighbor). This yields an independent-set-like dominating
	// set, the standard AMG C/F splitting heuristic ACE builds on.
	ex := par.Exec{P: p, Span: obs.Ambient()}
	perm := par.RandPerm(n, seed, ex)
	isCoarse := make([]bool, n)
	hasCoarseNbr := make([]bool, n)
	for _, u := range perm {
		if hasCoarseNbr[u] {
			continue
		}
		isCoarse[u] = true
		adj, _ := g.Neighbors(u)
		for _, v := range adj {
			hasCoarseNbr[v] = true
		}
	}
	coarseID := make([]int32, n)
	var coarseOf []int32
	for u := int32(0); int(u) < n; u++ {
		if isCoarse[u] {
			coarseID[u] = int32(len(coarseOf))
			coarseOf = append(coarseOf, u)
		} else {
			coarseID[u] = unset
		}
	}
	nc := int32(len(coarseOf))
	if nc == 0 {
		return nil, fmt.Errorf("coarsen: ACE selected no representatives")
	}

	// Interpolation matrix P (nc×n): a coarse vertex interpolates only
	// from itself; a fine vertex splits across its coarse neighbors
	// proportionally to edge weight.
	type entry struct {
		row int32
		val float64
	}
	cols := make([][]entry, n)
	par.ForEachChunked(n, ex, 256, func(i int) {
		u := int32(i)
		if isCoarse[u] {
			cols[u] = []entry{{coarseID[u], 1}}
			return
		}
		adj, wgt := g.Neighbors(u)
		var total float64
		for k, v := range adj {
			if isCoarse[v] {
				total += float64(wgt[k])
			}
		}
		if total == 0 {
			// Selection guarantees a coarse neighbor; guard for
			// degenerate inputs (isolated vertices become their own
			// representative above).
			return
		}
		var es []entry
		for k, v := range adj {
			if !isCoarse[v] {
				continue
			}
			frac := float64(wgt[k]) / total
			if frac < a.MinFrac {
				continue
			}
			es = append(es, entry{coarseID[v], frac})
		}
		// Renormalize after MinFrac dropping.
		var kept float64
		for _, e := range es {
			kept += e.val
		}
		for j := range es {
			es[j].val /= kept
		}
		cols[u] = es
	})

	// Assemble P in CSR (rows = coarse vertices).
	rowCnt := make([]int32, nc)
	for u := 0; u < n; u++ {
		for _, e := range cols[u] {
			rowCnt[e.row]++
		}
	}
	rowptr := make([]int64, nc+1)
	par.PrefixSumInt32(rowptr, rowCnt, par.Exec{P: 1})
	col := make([]int32, rowptr[nc])
	val := make([]float64, rowptr[nc])
	pos := make([]int64, nc)
	copy(pos, rowptr[:nc])
	for u := 0; u < n; u++ {
		for _, e := range cols[u] {
			col[pos[e.row]] = int32(u)
			val[pos[e.row]] = e.val
			pos[e.row]++
		}
	}
	pm := &spmat.CSR{Rows: nc, Cols: int32(n), Rowptr: rowptr, Col: col, Val: val}

	// Coarse matrix P·A·Pᵀ; strip diagonal, round weights (floor 1).
	amat := spmat.FromGraph(g)
	pt := pm.Transpose(ex)
	ac := spmat.SpGEMM(pm, spmat.SpGEMM(amat, pt, ex), ex)

	var edges []graph.Edge
	for i := int32(0); i < nc; i++ {
		cs, vs := ac.Row(i)
		for k, c := range cs {
			if c <= i { // keep upper triangle once
				continue
			}
			w := int64(math.Round(vs[k]))
			if w < 1 {
				w = 1
			}
			edges = append(edges, graph.Edge{U: i, V: c, W: w})
		}
	}
	cg, err := graph.FromEdges(int(nc), edges)
	if err != nil {
		return nil, fmt.Errorf("coarsen: ACE coarse graph: %w", err)
	}
	// Vertex weights: distribute each fine vertex's weight across its
	// interpolants (fractional weights rounded at the end, preserving the
	// total by assigning the residual to the largest share).
	vw := make([]float64, nc)
	for u := 0; u < n; u++ {
		w := float64(g.VertexWeight(int32(u)))
		for _, e := range cols[u] {
			vw[e.row] += w * e.val
		}
	}
	cg.VWgt = make([]int64, nc)
	var acc int64
	for i, w := range vw {
		cg.VWgt[i] = int64(math.Round(w))
		if cg.VWgt[i] < 1 {
			cg.VWgt[i] = 1
		}
		acc += cg.VWgt[i]
	}
	// Fix rounding drift on the heaviest coarse vertex so the total is
	// conserved exactly.
	if drift := g.TotalVertexWeight() - acc; drift != 0 {
		big := 0
		for i := range cg.VWgt {
			if cg.VWgt[i] > cg.VWgt[big] {
				big = i
			}
		}
		if cg.VWgt[big]+drift >= 1 {
			cg.VWgt[big] += drift
		}
	}
	return &ACEResult{Coarse: cg, P: pm, CoarseOf: coarseOf, IsCoarse: isCoarse}, nil
}

// Interpolate carries a real-valued coarse vector back to the fine level:
// x_fine = Pᵀ · x_coarse. This is the projection step of ACE's multiscale
// eigenvector computation.
func (r *ACEResult) Interpolate(xc []float64) []float64 {
	n := int(r.P.Cols)
	xf := make([]float64, n)
	for i := int32(0); i < r.P.Rows; i++ {
		cs, vs := r.P.Row(i)
		for k, c := range cs {
			xf[c] += vs[k] * xc[i]
		}
	}
	return xf
}
