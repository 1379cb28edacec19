package graph

import (
	"sync/atomic"

	"mlcg/internal/obs"
	"mlcg/internal/par"
)

// ConnectedComponentsPar labels connected components with a parallel
// hook-and-compress algorithm (Shiloach–Vishkin style): every vertex
// repeatedly hooks onto the smallest root among its neighbors, then paths
// are compressed by pointer jumping. Converges in O(log n) rounds on
// typical graphs and matches ConnectedComponents' labeling up to
// renumbering. p is the worker count (0 = GOMAXPROCS).
func (g *Graph) ConnectedComponentsPar(p int) ([]int32, int32) {
	ex := par.Exec{P: p, Span: obs.Ambient()}
	n := g.N()
	parent := make([]int32, n)
	par.ForEach(n, ex, func(i int) {
		parent[i] = int32(i)
	})
	if n == 0 {
		return parent, 0
	}
	for {
		var changed int32
		// Hook: point each vertex's root at the smallest neighboring root.
		par.ForEachChunked(n, ex, 256, func(i int) {
			u := int32(i)
			pu := atomic.LoadInt32(&parent[u])
			best := pu
			adj, _ := g.Neighbors(u)
			for _, v := range adj {
				if pv := atomic.LoadInt32(&parent[v]); pv < best {
					best = pv
				}
			}
			if best < pu {
				// Atomic-min on parent[pu] and parent[u].
				atomicMin32(&parent[pu], best)
				atomicMin32(&parent[u], best)
				atomic.StoreInt32(&changed, 1)
			}
		})
		// Compress: full pointer jumping to the current roots.
		par.ForEachChunked(n, ex, 512, func(i int) {
			u := int32(i)
			r := atomic.LoadInt32(&parent[u])
			for {
				next := atomic.LoadInt32(&parent[r])
				if next == r {
					break
				}
				r = next
			}
			atomic.StoreInt32(&parent[u], r)
		})
		if changed == 0 {
			break
		}
	}
	// Compact root ids to [0, k).
	newID := make([]int32, n)
	var k int32
	for u := 0; u < n; u++ {
		if parent[u] == int32(u) {
			newID[u] = k
			k++
		}
	}
	comp := make([]int32, n)
	par.ForEach(n, ex, func(i int) {
		comp[i] = newID[parent[i]]
	})
	return comp, k
}

// atomicMin32 lowers *addr to v if v is smaller.
func atomicMin32(addr *int32, v int32) {
	for {
		cur := atomic.LoadInt32(addr)
		if v >= cur {
			return
		}
		if atomic.CompareAndSwapInt32(addr, cur, v) {
			return
		}
	}
}
