package coarsen

import (
	"fmt"
	"sync/atomic"

	"mlcg/internal/graph"
	"mlcg/internal/par"
	"mlcg/internal/spmat"
)

// BuildSpGEMM constructs the coarse graph as the sparse triple product
// A_c = P·A·Pᵀ, where P is the nc×n aggregation matrix (Section II). Two
// calls into the SpGEMM kernel compute the product; the diagonal (intra-
// aggregate weight) is dropped to match the no-self-loop graph invariant.
// The kernel accumulates in float64, so a coarse edge weight of 2^53 or
// more is an error rather than a rounded result.
type BuildSpGEMM struct{}

// Name implements Builder.
func (BuildSpGEMM) Name() string { return "spgemm" }

// Build implements Builder.
func (b BuildSpGEMM) Build(g *graph.Graph, m *Mapping, ex par.Exec) (*graph.Graph, error) {
	return b.BuildWith(NewWorkspace(), g, m, ex)
}

// BuildWith implements Builder. The SpGEMM kernel manages its own
// scratch; the workspace covers the vertex-weight aggregation.
func (BuildSpGEMM) BuildWith(ws *Workspace, g *graph.Graph, m *Mapping, ex par.Exec) (*graph.Graph, error) {
	n := g.N()
	if err := m.Validate(n); err != nil {
		return nil, err
	}
	nc := int(m.NC)
	ex.P = par.Workers(ex.P, n)
	kx := ex.Kernel("dedup:spgemm")
	a := spmat.FromGraph(g)
	ac := spmat.PAPt(a, m.M, m.NC, kx)
	kx.Span.End()

	// Strip the diagonal and convert the float64 accumulators back to
	// integer weights. Every kept entry is a sum of positive weights, so
	// each partial sum its accumulator formed is at most the final value:
	// an entry below 2^53 is exact, and one at or above it may have been
	// rounded, which is reported instead of returned.
	kx = ex.Kernel("cons:compact")
	var inexact atomic.Bool
	cnt := growI32(&ws.cnt, nc, kx.Span)
	par.ForEachChunked(nc, kx, 256, func(i int) {
		cols, vals := ac.Row(int32(i))
		var c int32
		for k, cc := range cols {
			if cc != int32(i) {
				c++
				if vals[k] >= 1<<53 {
					inexact.Store(true)
				}
			}
		}
		cnt[i] = c
	})
	if inexact.Load() {
		kx.Span.End()
		return nil, fmt.Errorf("coarsen: spgemm: a coarse edge weight reaches 2^53, beyond exact float64 accumulation")
	}
	xadj := make([]int64, nc+1)
	par.PrefixSumInt32(xadj, cnt, kx)
	adj := make([]int32, xadj[nc])
	wgt := make([]int64, xadj[nc])
	par.ForEachChunked(nc, kx, 256, func(i int) {
		cols, vals := ac.Row(int32(i))
		pos := xadj[i]
		for k, cc := range cols {
			if cc == int32(i) {
				continue
			}
			adj[pos] = cc
			wgt[pos] = int64(vals[k])
			pos++
		}
	})
	kx.Span.End()
	kx = ex.Kernel("cons:vwgt")
	ws.bounds = par.BalancedRanges(ws.bounds, g.Xadj, ex.P)
	vwgt := aggregateVertexWeights(ws, g, m.M, nc, kx, ws.bounds)
	kx.Span.End()
	return &graph.Graph{NumV: int32(nc), Xadj: xadj, Adj: adj, Wgt: wgt, VWgt: vwgt}, nil
}

// BuildGlobalSort is the global sort-based baseline (Section II): every
// fine directed edge becomes a triple <M[u], M[v], W(u,v)> packed into a
// 64-bit key; one parallel radix sort groups duplicates, which a
// segmented reduction then merges. The paper found this approach not
// competitive with the vertex-centric methods; it is included as the
// baseline and as an oracle for testing the others.
type BuildGlobalSort struct{}

// Name implements Builder.
func (BuildGlobalSort) Name() string { return "globalsort" }

// Build implements Builder.
func (b BuildGlobalSort) Build(g *graph.Graph, m *Mapping, ex par.Exec) (*graph.Graph, error) {
	return b.BuildWith(NewWorkspace(), g, m, ex)
}

// BuildWith implements Builder.
func (BuildGlobalSort) BuildWith(ws *Workspace, g *graph.Graph, m *Mapping, ex par.Exec) (*graph.Graph, error) {
	n := g.N()
	if err := m.Validate(n); err != nil {
		return nil, err
	}
	nc := int(m.NC)
	mv := m.M
	ex.P = par.Workers(ex.P, n)

	// Count cross-aggregate directed edges per vertex.
	kx := ex.Kernel("cons:count")
	perVertex := growI32(&ws.cEst, n, kx.Span)
	par.ForEachChunked(n, kx, 256, func(i int) {
		u := int32(i)
		a := mv[u]
		adj, _ := g.Neighbors(u)
		var c int32
		for _, v := range adj {
			if mv[v] != a {
				c++
			}
		}
		perVertex[i] = c
	})
	offs := growI64(&ws.offs, n+1, kx.Span)
	total := par.PrefixSumInt32(offs, perVertex, kx)
	kx.Span.End()

	kx = ex.Kernel("cons:scatter")
	keys := growU64(&ws.keys64, int(total), kx.Span)
	vals := growU64(&ws.vals64, int(total), kx.Span)
	par.ForEachChunked(n, kx, 256, func(i int) {
		u := int32(i)
		a := mv[u]
		adj, wgt := g.Neighbors(u)
		pos := offs[i]
		for k, v := range adj {
			b := mv[v]
			if b == a {
				continue
			}
			keys[pos] = uint64(uint32(a))<<32 | uint64(uint32(b))
			vals[pos] = uint64(wgt[k])
			pos++
		}
	})
	kx.Span.End()

	kx = ex.Kernel("dedup:globalsort")
	par.RadixSortPairs(keys, vals, kx)

	// Segmented reduction over equal keys. Boundaries are computed in
	// parallel; the compaction itself is a sequential scan (the sorted
	// stream is already the dominant cost).
	adj := make([]int32, 0, total/2)
	wgt := make([]int64, 0, total/2)
	xadj := make([]int64, nc+1)
	for lo := int64(0); lo < total; {
		hi := lo + 1
		for hi < total && keys[hi] == keys[lo] {
			hi++
		}
		var w int64
		for i := lo; i < hi; i++ {
			w += int64(vals[i])
		}
		a := int32(keys[lo] >> 32)
		b := int32(uint32(keys[lo]))
		adj = append(adj, b)
		wgt = append(wgt, w)
		xadj[a+1]++
		lo = hi
	}
	for i := 0; i < nc; i++ {
		xadj[i+1] += xadj[i]
	}
	kx.Span.End()
	kx = ex.Kernel("cons:vwgt")
	ws.bounds = par.BalancedRanges(ws.bounds, g.Xadj, ex.P)
	vwgt := aggregateVertexWeights(ws, g, mv, nc, kx, ws.bounds)
	kx.Span.End()
	return &graph.Graph{NumV: int32(nc), Xadj: xadj, Adj: adj, Wgt: wgt, VWgt: vwgt}, nil
}
