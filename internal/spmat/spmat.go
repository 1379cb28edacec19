// Package spmat provides the sparse linear-algebra substrate: CSR
// matrices, parallel SpMV, a two-phase (symbolic + numeric) hash-based
// SpGEMM, and the P·A·Pᵀ triple product used by the SpGEMM-based coarse
// graph construction. It stands in for the Kokkos Kernels routines the
// paper calls.
package spmat

import (
	"fmt"

	"mlcg/internal/graph"
	"mlcg/internal/obs"
	"mlcg/internal/par"
)

// CSR is a sparse matrix in compressed sparse row format. Rows and Cols
// are the dimensions; Rowptr has Rows+1 entries; Col/Val hold the column
// indices and values of the nonzeros row by row. Columns within a row are
// not required to be sorted unless stated.
type CSR struct {
	Rows, Cols int32
	Rowptr     []int64
	Col        []int32
	Val        []float64
}

// NNZ returns the number of stored nonzeros.
func (a *CSR) NNZ() int64 { return a.Rowptr[a.Rows] }

// Row returns the column/value slices of row i, aliasing internal storage.
func (a *CSR) Row(i int32) ([]int32, []float64) {
	lo, hi := a.Rowptr[i], a.Rowptr[i+1]
	return a.Col[lo:hi], a.Val[lo:hi]
}

// Validate checks structural invariants.
func (a *CSR) Validate() error {
	if len(a.Rowptr) != int(a.Rows)+1 {
		return fmt.Errorf("spmat: len(Rowptr)=%d, want %d", len(a.Rowptr), a.Rows+1)
	}
	if a.Rowptr[0] != 0 {
		return fmt.Errorf("spmat: Rowptr[0] != 0")
	}
	for i := int32(0); i < a.Rows; i++ {
		if a.Rowptr[i+1] < a.Rowptr[i] {
			return fmt.Errorf("spmat: Rowptr decreasing at %d", i)
		}
	}
	if int64(len(a.Col)) != a.NNZ() || len(a.Val) != len(a.Col) {
		return fmt.Errorf("spmat: nnz arrays inconsistent")
	}
	for _, c := range a.Col {
		if c < 0 || c >= a.Cols {
			return fmt.Errorf("spmat: column %d out of range [0,%d)", c, a.Cols)
		}
	}
	return nil
}

// FromGraph returns the weighted adjacency matrix of g.
func FromGraph(g *graph.Graph) *CSR {
	val := make([]float64, len(g.Wgt))
	for i, w := range g.Wgt {
		val[i] = float64(w)
	}
	return &CSR{
		Rows:   g.NumV,
		Cols:   g.NumV,
		Rowptr: append([]int64(nil), g.Xadj...),
		Col:    append([]int32(nil), g.Adj...),
		Val:    val,
	}
}

// MulVec computes y = A·x in parallel over rows. len(x) must be Cols and
// len(y) must be Rows.
func (a *CSR) MulVec(y, x []float64, p int) {
	if len(x) != int(a.Cols) || len(y) != int(a.Rows) {
		panic("spmat: MulVec dimension mismatch")
	}
	par.ForChunked(int(a.Rows), par.Exec{P: p, Span: obs.Ambient()}, 512, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			var sum float64
			for k := a.Rowptr[i]; k < a.Rowptr[i+1]; k++ {
				sum += a.Val[k] * x[a.Col[k]]
			}
			y[i] = sum
		}
	})
}

// Transpose returns Aᵀ. The scatter uses per-worker column histograms with
// bucket-major offsets (the same stable pattern as an LSD radix-sort pass),
// so rows of the result come out with sorted columns and the whole
// operation is a single parallel pass over the nonzeros after counting.
func (a *CSR) Transpose(ex par.Exec) *CSR {
	n, m := int(a.Rows), int(a.Cols)
	p := par.Workers(ex.P, n)
	hist := make([]int64, p*m)
	par.For(n, ex, func(w, lo, hi int) {
		h := hist[w*m : (w+1)*m]
		for k := a.Rowptr[lo]; k < a.Rowptr[hi]; k++ {
			h[a.Col[k]]++
		}
	})
	rowptr := make([]int64, m+1)
	var running int64
	for c := 0; c < m; c++ {
		rowptr[c] = running
		for w := 0; w < p; w++ {
			idx := w*m + c
			cnt := hist[idx]
			hist[idx] = running
			running += cnt
		}
	}
	rowptr[m] = running
	col := make([]int32, a.NNZ())
	val := make([]float64, a.NNZ())
	par.For(n, ex, func(w, lo, hi int) {
		offs := hist[w*m : (w+1)*m]
		for i := lo; i < hi; i++ {
			for k := a.Rowptr[i]; k < a.Rowptr[i+1]; k++ {
				c := a.Col[k]
				pos := offs[c]
				offs[c] = pos + 1
				col[pos] = int32(i)
				val[pos] = a.Val[k]
			}
		}
	})
	return &CSR{Rows: a.Cols, Cols: a.Rows, Rowptr: rowptr, Col: col, Val: val}
}
