package graph

import (
	"fmt"

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

// RCM computes the reverse Cuthill–McKee ordering: BFS from a
// pseudo-peripheral vertex with neighbors visited in increasing-degree
// order, reversed — the classic bandwidth/envelope-reducing ordering, used
// here as the baseline nested dissection is compared against. Returns
// perm with perm[newPosition] = oldVertex. The graph must be connected.
func (g *Graph) RCM() ([]int32, error) {
	n := g.N()
	if n == 0 {
		return nil, nil
	}
	// Pseudo-peripheral start: BFS twice from the farthest vertex found.
	start := int32(0)
	for i := 0; i < 2; i++ {
		dist, order := g.BFS(start)
		if len(order) != n {
			return nil, fmt.Errorf("graph: RCM requires a connected graph (%d of %d reached)", len(order), n)
		}
		far := order[len(order)-1]
		// Among the farthest level, pick the minimum-degree vertex.
		best := far
		for _, v := range order {
			if dist[v] == dist[far] && g.Degree(v) < g.Degree(best) {
				best = v
			}
		}
		start = best
	}
	// Cuthill–McKee BFS with degree-sorted neighbor expansion.
	visited := make([]bool, n)
	order := make([]int32, 0, n)
	queue := []int32{start}
	visited[start] = true
	var nbrs []int32
	var degs []int64
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		order = append(order, u)
		adj, _ := g.Neighbors(u)
		nbrs = nbrs[:0]
		degs = degs[:0]
		for _, v := range adj {
			if !visited[v] {
				visited[v] = true
				nbrs = append(nbrs, v)
				degs = append(degs, g.Degree(v))
			}
		}
		// Insertion sort by degree (neighbor lists are short).
		for i := 1; i < len(nbrs); i++ {
			v, d := nbrs[i], degs[i]
			j := i - 1
			for j >= 0 && (degs[j] > d || (degs[j] == d && nbrs[j] > v)) {
				nbrs[j+1], degs[j+1] = nbrs[j], degs[j]
				j--
			}
			nbrs[j+1], degs[j+1] = v, d
		}
		queue = append(queue, nbrs...)
	}
	// Reverse.
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return order, nil
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
