package graph

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"mlcg/internal/par"
)

// refFromEdges is the global-sort FromEdges the bucket kernel replaced:
// canonicalize every edge to (min, max), sort the whole list, merge equal
// pairs, scatter both orientations and sort each row. It is kept as the
// bit-identity oracle for buildCSR (Xadj, Adj, Wgt and error text).
func refFromEdges(n int, edges []Edge) (*Graph, error) {
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

// fromCanonicalEdges assumes edges are deduplicated with U < V and builds
// the symmetric CSR directly, without validating weights (tests use it to
// build graphs FromEdges would reject).
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

// sameCSR reports whether g and h hold bit-identical arrays.
func sameCSR(g, h *Graph) bool {
	return g.NumV == h.NumV && slices.Equal(g.Xadj, h.Xadj) && slices.Equal(g.Adj, h.Adj) &&
		slices.Equal(g.Wgt, h.Wgt) && slices.Equal(g.VWgt, h.VWgt)
}

// errText is err's message, or "" for nil.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestInducedSubgraphMatchesReference compares InducedSubgraph on random
// keep masks with the subgraph built the replaced way: the kept edges,
// relabeled, through fromCanonicalEdges.
func TestInducedSubgraphMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 200; iter++ {
		n := 1 + rng.Intn(60)
		var edges []Edge
		for k := rng.Intn(4 * n); k > 0; k-- {
			edges = append(edges, Edge{rng.Int31n(int32(n)), rng.Int31n(int32(n)), 1 + rng.Int63n(9)})
		}
		g := MustFromEdges(n, edges)
		if iter%2 == 0 {
			g.MaterializeVWgt()
			for i := range g.VWgt {
				g.VWgt[i] = 1 + rng.Int63n(5)
			}
		}
		keep := make([]bool, n)
		newID := make([]int32, n)
		var oldID []int32
		for v := range keep {
			keep[v] = rng.Intn(3) > 0
			if keep[v] {
				newID[v] = int32(len(oldID))
				oldID = append(oldID, int32(v))
			}
		}
		var kept []Edge
		for _, u := range oldID {
			adj, wgt := g.Neighbors(u)
			for i, v := range adj {
				if keep[v] && u < v {
					kept = append(kept, Edge{newID[u], newID[v], wgt[i]})
				}
			}
		}
		want := fromCanonicalEdges(len(oldID), kept)
		if g.VWgt != nil {
			want.VWgt = make([]int64, len(oldID))
			for i, u := range oldID {
				want.VWgt[i] = g.VWgt[u]
			}
		}
		got, ids := g.InducedSubgraph(keep)
		if !sameCSR(got, want) || !slices.Equal(ids, oldID) {
			t.Fatalf("iter %d: InducedSubgraph differs from the reference", iter)
		}
	}
}
