package coarsen

import (
	"mlcg/internal/graph"
	"mlcg/internal/par"
)

// heavyNeighbors computes H[u] = the heaviest neighbor of u (Algorithm 4,
// lines 2-8). Ties on weight are broken toward the neighbor with the
// smallest position in the random permutation (pos = O, the inverse
// permutation). The positional tie-break matters: it guarantees that the
// functional graph u -> H[u] contains no cycles longer than two, which is
// what makes the pointer-jumping phase of HEC3 (Algorithm 5) terminate.
//
// Proof sketch: along any cycle u1 -> u2 -> ... -> uk -> u1 the edge
// weights are non-decreasing, hence all equal; then each step strictly
// decreases the permutation position two hops back, which is impossible
// for k > 2.
//
// Vertices with no neighbors get H[u] = u.
func heavyNeighbors(g *graph.Graph, pos []int32, ex par.Exec) []int32 {
	ex = ex.Kernel("heavy-neighbors")
	defer ex.Span.End()
	n := g.N()
	h := make([]int32, n)
	par.ForEachChunked(n, ex, 256, func(i int) {
		u := int32(i)
		adj, wgt := g.Neighbors(u)
		if len(adj) == 0 {
			h[u] = u
			return
		}
		best := adj[0]
		bw := wgt[0]
		for k := 1; k < len(adj); k++ {
			v, w := adj[k], wgt[k]
			if w > bw || (w == bw && pos[v] < pos[best]) {
				best, bw = v, w
			}
		}
		h[u] = best
	})
	return h
}

// heavyUnmatchedNeighbors recomputes H restricted to unmatched vertices
// (match[v] == unset), the HEM variant (tech-report Algorithm 10): a
// vertex looks for its heaviest still-unmatched neighbor. Vertices that
// are matched, or whose neighbors are all matched, get H[u] = u.
func heavyUnmatchedNeighbors(g *graph.Graph, match, pos []int32, ex par.Exec) []int32 {
	ex = ex.Kernel("heavy-unmatched")
	defer ex.Span.End()
	n := g.N()
	h := make([]int32, n)
	par.ForEachChunked(n, ex, 256, func(i int) {
		u := int32(i)
		h[u] = u
		if match[u] != unset {
			return
		}
		adj, wgt := g.Neighbors(u)
		best := u
		var bw int64 = -1
		for k, v := range adj {
			if match[v] != unset {
				continue
			}
			w := wgt[k]
			if w > bw || (w == bw && pos[v] < pos[best]) {
				best, bw = v, w
			}
		}
		h[u] = best
	})
	return h
}
