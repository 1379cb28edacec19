package graph

import (
	"fmt"
	"math"

	"mlcg/internal/obs"
	"mlcg/internal/par"
)

// Edge is one undirected edge used by the builder. Endpoint order does not
// matter; duplicates (in either orientation) are merged by summing weights.
type Edge struct {
	U, V int32
	W    int64
}

// FromEdges builds a validated CSR graph from an undirected edge list.
// Self-loops are dropped, duplicate edges merged (weights summed), and
// weights <= 0 or a weight total beyond int64 are rejected. This is the
// paper's preprocessing path: raw inputs are symmetrized and deduplicated
// before any coarsening runs.
func FromEdges(n int, edges []Edge) (*Graph, error) {
	return buildCSR(n, [][]Edge{edges}, par.Exec{P: 1, Span: obs.Ambient()})
}

// MustFromEdges is FromEdges that panics on error, for tests and examples
// with known-good inputs.
func MustFromEdges(n int, edges []Edge) *Graph {
	g, err := FromEdges(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// buildCSR is the one edge-list-to-CSR kernel behind FromEdges,
// StreamEdges, ReadEdgeList, ReadMetis and InducedSubgraph. The edge list
// arrives as consecutive runs (StreamEdges hands over its parse pieces
// without concatenating them). The kernel has three phases:
//
//  1. Validate: every endpoint in range and every weight positive, then
//     the running directed weight total within int64.
//  2. Bucket: each non-loop edge goes to the bucket of its smaller
//     endpoint as (larger endpoint, weight) by count, prefix sum and
//     scatter. Each bucket is sorted unless it already is, and equal
//     neighbours are merged by summing their weights.
//  3. Expand: row x is its lower neighbours u < x, written while scanning
//     the buckets in ascending u, followed by its own merged bucket.
//
// Rows come out sorted and exact-size. With p > 1 the scatters of phases
// 2 and 3 use per-worker histograms over contiguous ranges, so bucket and
// row contents keep input order and the graph is identical at every p.
// The sorts' radix passes are counted on ex.Span.
func buildCSR(n int, runs [][]Edge, ex par.Exec) (*Graph, error) {
	if n < 0 || n > 1<<31-1 {
		return nil, fmt.Errorf("graph: vertex count %d out of range", n)
	}
	m, err := validateEdges(n, runs)
	if err != nil {
		return nil, err
	}
	// A worker's histograms cost n counters, so use only as many workers
	// as there are edges per vertex; int32 counters bound the edge count.
	p := 1
	if n > 0 && m <= math.MaxInt32 {
		p = min(par.Workers(ex.P, m), m/n)
	}
	if p <= 1 {
		return buildSeq(n, runs, ex.Span), nil
	}
	ex.P = p
	return buildPar(n, runs, m, ex), nil
}

// validateEdges checks the edge runs in order, with FromEdges's messages,
// and returns their total length. Range and weight errors anywhere come
// before an overflow of the running total. CSR stores every edge twice, so
// the directed weight total is twice the undirected one; it must fit in
// int64 (see Validate), which also keeps every merged weight below int64
// overflow.
func validateEdges(n int, runs [][]Edge) (int, error) {
	m := 0
	var total int64
	var over *Edge // first edge whose weight overflows the running total
	for _, run := range runs {
		for i, e := range run {
			if e.U < 0 || int(e.U) >= n || e.V < 0 || int(e.V) >= n {
				return 0, fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", e.U, e.V, n)
			}
			if e.W <= 0 {
				return 0, fmt.Errorf("graph: edge {%d,%d} has non-positive weight %d", e.U, e.V, e.W)
			}
			if over != nil || e.U == e.V {
				continue
			}
			if e.W > (math.MaxInt64-total)/2 {
				over = &run[i]
				continue
			}
			total += 2 * e.W
		}
		m += len(run)
	}
	if over != nil {
		return 0, fmt.Errorf("graph: total edge weight overflows int64 at edge {%d,%d}", over.U, over.V)
	}
	return m, nil
}

// buildSeq is the one-worker kernel. Both of its scatters run a cursor
// array of n+2 entries one slot ahead of its offsets: counts go to c[x+2],
// an inclusive prefix sum leaves the start of x at c[x+1], and each write
// advances c[x+1] to the end of x, which is the start of x+1. When the
// scatter is done c[0..n] are the offsets, with no separate cursor array.
func buildSeq(n int, runs [][]Edge, span *obs.Span) *Graph {
	off := make([]int64, n+2)
	for _, run := range runs {
		for _, e := range run {
			if e.U < e.V {
				off[int(e.U)+2]++
			} else if e.V < e.U {
				off[int(e.V)+2]++
			}
		}
	}
	for i := 2; i < len(off); i++ {
		off[i] += off[i-1]
	}
	bk := make([]int32, off[n+1])
	bw := make([]int64, off[n+1])
	for _, run := range runs {
		for _, e := range run {
			u, v := e.U, e.V
			if u == v {
				continue
			}
			if u > v {
				u, v = v, u
			}
			l := off[u+1]
			off[u+1]++
			bk[l], bw[l] = v, e.W
		}
	}
	off = off[:n+1]
	mlen := make([]int32, n)
	var s par.SortScratch
	mergeBuckets(off, bk, bw, mlen, 0, n, &s)
	span.Add(obs.CtrRadixPass, s.TakePasses())

	xadj := make([]int64, n+2)
	for u := 0; u < n; u++ {
		xadj[u+2] += int64(mlen[u])
		for _, v := range bk[off[u] : off[u]+int64(mlen[u])] {
			xadj[int(v)+2]++
		}
	}
	for i := 2; i < len(xadj); i++ {
		xadj[i] += xadj[i-1]
	}
	adj := make([]int32, xadj[n+1])
	wgt := make([]int64, xadj[n+1])
	for u := 0; u < n; u++ {
		b, e := off[u], off[u]+int64(mlen[u])
		at := xadj[u+1] // every lower neighbour of u is already written
		copy(adj[at:], bk[b:e])
		copy(wgt[at:], bw[b:e])
		xadj[u+1] = at + e - b
		for i := b; i < e; i++ {
			v := bk[i]
			l := xadj[v+1]
			xadj[v+1]++
			adj[l], wgt[l] = int32(u), bw[i]
		}
	}
	return &Graph{NumV: int32(n), Xadj: xadj[:n+1], Adj: adj, Wgt: wgt}
}

// buildPar is buildSeq on ex.P workers: workers own contiguous ranges of the
// edge sequence in phase 2 and of the buckets in phase 3, count into
// private histograms, and par.MergeHistograms turns the counts into
// per-worker write offsets — the contention-free scatter of coarse-graph
// construction. Ranges are ordered, so every bucket and row is filled in
// the order buildSeq fills it.
func buildPar(n int, runs [][]Edge, m int, ex par.Exec) *Graph {
	p := ex.P
	hists := make([][]int32, p)
	for w := range hists {
		hists[w] = make([]int32, n)
	}
	eb := make([]int, p+1)
	for w := range eb {
		eb[w] = w * m / p
	}
	par.ForRanges(eb, ex.Span, func(w, lo, hi int) {
		h := hists[w]
		eachRun(runs, lo, hi, func(run []Edge) {
			for _, e := range run {
				if e.U < e.V {
					h[e.U]++
				} else if e.V < e.U {
					h[e.V]++
				}
			}
		})
	})
	mlen := make([]int32, n)
	par.MergeHistograms(hists, mlen, ex)
	off := make([]int64, n+1)
	nb := par.PrefixSumInt32(off, mlen, ex)
	bk := make([]int32, nb)
	bw := make([]int64, nb)
	par.ForRanges(eb, ex.Span, func(w, lo, hi int) {
		h := hists[w]
		eachRun(runs, lo, hi, func(run []Edge) {
			for _, e := range run {
				u, v := e.U, e.V
				if u == v {
					continue
				}
				if u > v {
					u, v = v, u
				}
				l := off[u] + int64(h[u])
				h[u]++
				bk[l], bw[l] = v, e.W
			}
		})
	})
	scratch := make([]par.SortScratch, p)
	par.ForChunked(n, ex, 1024, func(w, lo, hi int) {
		mergeBuckets(off, bk, bw, mlen, lo, hi, &scratch[w])
	})
	var passes int64
	for w := range scratch {
		passes += scratch[w].TakePasses()
	}
	ex.Span.Add(obs.CtrRadixPass, passes)

	for _, h := range hists {
		clear(h)
	}
	vb := par.BalancedRanges(nil, off, p)
	par.ForRanges(vb, ex.Span, func(w, lo, hi int) {
		h := hists[w]
		for u := lo; u < hi; u++ {
			for _, v := range bk[off[u] : off[u]+int64(mlen[u])] {
				h[v]++
			}
		}
	})
	deg := make([]int32, n)
	par.MergeHistograms(hists, deg, ex)
	par.For(n, ex, func(_, lo, hi int) {
		for x := lo; x < hi; x++ {
			deg[x] += mlen[x]
		}
	})
	xadj := make([]int64, n+1)
	nnz := par.PrefixSumInt32(xadj, deg, ex)
	adj := make([]int32, nnz)
	wgt := make([]int64, nnz)
	par.ForRanges(vb, ex.Span, func(w, lo, hi int) {
		h := hists[w]
		for u := lo; u < hi; u++ {
			b, e := off[u], off[u]+int64(mlen[u])
			at := xadj[u+1] - (e - b)
			copy(adj[at:], bk[b:e])
			copy(wgt[at:], bw[b:e])
			for i := b; i < e; i++ {
				v := bk[i]
				l := xadj[v] + int64(h[v])
				h[v]++
				adj[l], wgt[l] = int32(u), bw[i]
			}
		}
	})
	return &Graph{NumV: int32(n), Xadj: xadj, Adj: adj, Wgt: wgt}
}

// eachRun calls fn on the pieces of the runs' concatenation that fall in
// the index range [lo, hi).
func eachRun(runs [][]Edge, lo, hi int, fn func([]Edge)) {
	base := 0
	for _, run := range runs {
		if base >= hi {
			return
		}
		if end := base + len(run); end > lo {
			fn(run[max(lo-base, 0):min(hi-base, len(run))])
		}
		base += len(run)
	}
}

// mergeBuckets sorts the buckets u in [lo, hi) by neighbour, skipping
// buckets that are already sorted, and sums the weights of equal
// neighbours. The merged bucket is left at the front of its window and its
// length in mlen[u]. The sorts' radix passes add up in s; the caller
// flushes them to obs once per build, not per bucket.
func mergeBuckets(off []int64, bk []int32, bw []int64, mlen []int32, lo, hi int, s *par.SortScratch) {
	for u := lo; u < hi; u++ {
		keys, wgts := bk[off[u]:off[u+1]], bw[off[u]:off[u+1]]
		if len(keys) == 0 {
			mlen[u] = 0
			continue
		}
		for i := 1; i < len(keys); i++ {
			if keys[i-1] > keys[i] {
				par.SortPairsInt32Scratch(keys, wgts, s)
				break
			}
		}
		k := 0
		for i := 1; i < len(keys); i++ {
			if keys[i] == keys[k] {
				wgts[k] += wgts[i]
			} else {
				k++
				keys[k], wgts[k] = keys[i], wgts[i]
			}
		}
		mlen[u] = int32(k + 1)
	}
}

// SortAdjacency sorts each vertex's neighbor list ascending by id, keeping
// weights aligned. Construction algorithms may emit unsorted adjacencies
// (hash-based dedup); canonical form makes graphs comparable.
func (g *Graph) SortAdjacency(p int) {
	ex := par.Exec{P: p, Span: obs.Ambient()}
	par.ForEachChunked(g.N(), ex, 256, func(i int) {
		u := int32(i)
		adj, wgt := g.Neighbors(u)
		par.SortPairsInt32(adj, wgt, ex)
	})
}

// Equal reports whether g and h are identical graphs: same vertex count,
// same sorted adjacency structure, same edge and vertex weights. Both
// graphs are compared in canonical (sorted) order without being modified.
func Equal(g, h *Graph) bool {
	if g.NumV != h.NumV {
		return false
	}
	ex := par.Exec{Span: obs.Ambient()}
	for i := range g.Xadj {
		if g.Xadj[i] != h.Xadj[i] {
			return false
		}
	}
	for u := int32(0); u < g.NumV; u++ {
		if g.VertexWeight(u) != h.VertexWeight(u) {
			return false
		}
		ga, gw := g.Neighbors(u)
		ha, hw := h.Neighbors(u)
		if len(ga) != len(ha) {
			return false
		}
		gi := sortedView(ga, gw, ex)
		hi := sortedView(ha, hw, ex)
		for k := range gi.adj {
			if gi.adj[k] != hi.adj[k] || gi.wgt[k] != hi.wgt[k] {
				return false
			}
		}
	}
	return true
}

type adjView struct {
	adj []int32
	wgt []int64
}

// sortedView returns a sorted copy of one adjacency list (copying only when
// it is not already sorted).
func sortedView(adj []int32, wgt []int64, ex par.Exec) adjView {
	sorted := true
	for i := 1; i < len(adj); i++ {
		if adj[i-1] > adj[i] {
			sorted = false
			break
		}
	}
	if sorted {
		return adjView{adj, wgt}
	}
	a := append([]int32(nil), adj...)
	w := append([]int64(nil), wgt...)
	par.SortPairsInt32(a, w, ex)
	return adjView{a, w}
}

// InducedSubgraph returns the subgraph induced by keep (vertices with
// keep[v] true), relabeled to 0..k-1 in ascending original-id order, plus
// the old-id array indexed by new id. The build is sequential; ex.Span
// receives its counters.
func (g *Graph) InducedSubgraph(keep []bool, ex par.Exec) (*Graph, []int32) {
	newID := make([]int32, g.NumV)
	var oldID []int32
	for v := int32(0); v < g.NumV; v++ {
		if keep[v] {
			newID[v] = int32(len(oldID))
			oldID = append(oldID, v)
		} else {
			newID[v] = -1
		}
	}
	var edges []Edge
	for _, u := range oldID {
		adj, wgt := g.Neighbors(u)
		for i, v := range adj {
			if keep[v] && u < v {
				edges = append(edges, Edge{newID[u], newID[v], wgt[i]})
			}
		}
	}
	sub, err := buildCSR(len(oldID), [][]Edge{edges}, par.Exec{P: 1, Span: ex.Span})
	if err != nil {
		panic(err) // unreachable: the edges of a valid graph are valid
	}
	if g.VWgt != nil {
		sub.VWgt = make([]int64, len(oldID))
		for i, u := range oldID {
			sub.VWgt[i] = g.VWgt[u]
		}
	}
	return sub, oldID
}
