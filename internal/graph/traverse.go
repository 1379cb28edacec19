package graph

import (
	"mlcg/internal/obs"
	"mlcg/internal/par"
)

// BFS runs a breadth-first search from src and returns the distance array
// (-1 for unreached vertices) and the visit order.
func (g *Graph) BFS(src int32) (dist []int32, order []int32) {
	n := g.N()
	dist = make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	order = make([]int32, 0, n)
	queue := make([]int32, 0, n)
	dist[src] = 0
	queue = append(queue, src)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		order = append(order, u)
		adj, _ := g.Neighbors(u)
		for _, v := range adj {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist, order
}

// ConnectedComponents labels each vertex with a component id in [0, k) and
// returns the labels and component count. Uses iterative BFS, so it is
// stack-safe on long paths.
func (g *Graph) ConnectedComponents() ([]int32, int32) {
	n := g.N()
	comp := make([]int32, n)
	for i := range comp {
		comp[i] = -1
	}
	var k int32
	queue := make([]int32, 0, 1024)
	for s := int32(0); int(s) < n; s++ {
		if comp[s] >= 0 {
			continue
		}
		comp[s] = k
		queue = append(queue[:0], s)
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			adj, _ := g.Neighbors(u)
			for _, v := range adj {
				if comp[v] < 0 {
					comp[v] = k
					queue = append(queue, v)
				}
			}
		}
		k++
	}
	return comp, k
}

// IsConnected reports whether the graph has exactly one connected component
// (the paper's algorithms assume connected inputs).
func (g *Graph) IsConnected() bool {
	if g.NumV == 0 {
		return true
	}
	_, k := g.ConnectedComponents()
	return k == 1
}

// LargestComponent extracts the largest connected component, relabels its
// vertices, and returns the subgraph plus the old-id array. This is the
// paper's preprocessing step ("extract the largest connected component and
// relabel vertex identifiers", Table I caption).
func (g *Graph) LargestComponent() (*Graph, []int32) {
	comp, k := g.ConnectedComponents()
	if k <= 1 {
		return g, nil
	}
	counts := make([]int64, k)
	for _, c := range comp {
		counts[c]++
	}
	best := int32(0)
	for c := int32(1); c < k; c++ {
		if counts[c] > counts[best] {
			best = c
		}
	}
	keep := make([]bool, g.NumV)
	for v, c := range comp {
		keep[v] = c == best
	}
	return g.InducedSubgraph(keep, par.Exec{Span: obs.Ambient()})
}
