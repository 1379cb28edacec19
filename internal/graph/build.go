package graph

import (
	"fmt"
	"math"
	"sort"

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
	if n < 0 || n > 1<<31-1 {
		return nil, fmt.Errorf("graph: vertex count %d out of range", n)
	}
	for _, e := range edges {
		if e.U < 0 || int(e.U) >= n || e.V < 0 || int(e.V) >= n {
			return nil, fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", e.U, e.V, n)
		}
		if e.W <= 0 {
			return nil, fmt.Errorf("graph: edge {%d,%d} has non-positive weight %d", e.U, e.V, e.W)
		}
	}
	// Canonicalize each edge to (min,max), sort, merge duplicates. CSR
	// stores every edge twice, so the directed weight total is twice the
	// undirected one; it must fit in int64 (see Validate), which also
	// keeps every merged weight below int64 overflow.
	canon := make([]Edge, 0, len(edges))
	var total int64
	for _, e := range edges {
		if e.U == e.V {
			continue // drop self-loops
		}
		if e.W > (math.MaxInt64-total)/2 {
			return nil, fmt.Errorf("graph: total edge weight overflows int64 at edge {%d,%d}", e.U, e.V)
		}
		total += 2 * e.W
		if e.U > e.V {
			e.U, e.V = e.V, e.U
		}
		canon = append(canon, e)
	}
	sort.Slice(canon, func(i, j int) bool {
		if canon[i].U != canon[j].U {
			return canon[i].U < canon[j].U
		}
		return canon[i].V < canon[j].V
	})
	merged := canon[:0]
	for _, e := range canon {
		if k := len(merged); k > 0 && merged[k-1].U == e.U && merged[k-1].V == e.V {
			merged[k-1].W += e.W
		} else {
			merged = append(merged, e)
		}
	}
	return fromCanonicalEdges(n, merged), nil
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

// fromCanonicalEdges assumes edges are deduplicated with U < V and builds
// the symmetric CSR directly.
func fromCanonicalEdges(n int, edges []Edge) *Graph {
	deg := make([]int32, n)
	for _, e := range edges {
		deg[e.U]++
		deg[e.V]++
	}
	xadj := make([]int64, n+1)
	par.PrefixSumInt32(xadj, deg, 1)
	adj := make([]int32, xadj[n])
	wgt := make([]int64, xadj[n])
	pos := make([]int64, n)
	copy(pos, xadj[:n])
	for _, e := range edges {
		adj[pos[e.U]], wgt[pos[e.U]] = e.V, e.W
		pos[e.U]++
		adj[pos[e.V]], wgt[pos[e.V]] = e.U, e.W
		pos[e.V]++
	}
	g := &Graph{NumV: int32(n), Xadj: xadj, Adj: adj, Wgt: wgt}
	g.SortAdjacency(1)
	return g
}

// FromCSR wraps raw CSR arrays into a Graph after validating them.
func FromCSR(n int, xadj []int64, adj []int32, wgt []int64, vwgt []int64) (*Graph, error) {
	g := &Graph{NumV: int32(n), Xadj: xadj, Adj: adj, Wgt: wgt, VWgt: vwgt}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// SortAdjacency sorts each vertex's neighbor list ascending by id, keeping
// weights aligned. Construction algorithms may emit unsorted adjacencies
// (hash-based dedup); canonical form makes graphs comparable.
func (g *Graph) SortAdjacency(p int) {
	par.ForEachChunked(g.N(), p, 256, func(i int) {
		u := int32(i)
		adj, wgt := g.Neighbors(u)
		par.SortPairsInt32(adj, wgt)
	})
}

// Equal reports whether g and h are identical graphs: same vertex count,
// same sorted adjacency structure, same edge and vertex weights. Both
// graphs are compared in canonical (sorted) order without being modified.
func Equal(g, h *Graph) bool {
	if g.NumV != h.NumV {
		return false
	}
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
		gi := sortedView(ga, gw)
		hi := sortedView(ha, hw)
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
func sortedView(adj []int32, wgt []int64) adjView {
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
	par.SortPairsInt32(a, w)
	return adjView{a, w}
}

// InducedSubgraph returns the subgraph induced by keep (vertices with
// keep[v] true), relabeled to 0..k-1 in ascending original-id order, plus
// the old-id array indexed by new id.
func (g *Graph) InducedSubgraph(keep []bool) (*Graph, []int32) {
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
	sub := fromCanonicalEdges(len(oldID), edges)
	if g.VWgt != nil {
		sub.VWgt = make([]int64, len(oldID))
		for i, u := range oldID {
			sub.VWgt[i] = g.VWgt[u]
		}
	}
	return sub, oldID
}
