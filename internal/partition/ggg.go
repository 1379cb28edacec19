package partition

import (
	"container/heap"

	"mlcg/internal/graph"
	"mlcg/internal/obs"
	"mlcg/internal/par"
)

// GreedyGrow computes an initial bisection by greedy graph growing: a
// region is grown from a random seed vertex, repeatedly absorbing the
// frontier vertex with the highest gain (cut reduction), until it holds
// half the total vertex weight. The best of trials attempts (by cut) is
// returned. This is the initial partitioner the paper pairs with FM
// refinement.
func GreedyGrow(g *graph.Graph, seed uint64, trials int) []int32 {
	return GreedyGrowTarget(g, seed, trials, 0)
}

// GreedyGrowTarget grows the region to the given side-0 vertex weight
// (0 means half the total), for the proportional splits of recursive
// k-way partitioning.
func GreedyGrowTarget(g *graph.Graph, seed uint64, trials int, target0 int64) []int32 {
	return greedyGrowTarget(g, seed, trials, target0, obs.Ambient())
}

// greedyGrowTarget is GreedyGrowTarget with its cut evaluations charged to
// span.
func greedyGrowTarget(g *graph.Graph, seed uint64, trials int, target0 int64, span *obs.Span) []int32 {
	n := g.N()
	if n == 0 {
		return nil
	}
	if trials < 1 {
		trials = 1
	}
	if target0 <= 0 {
		target0 = g.TotalVertexWeight() / 2
	}
	rng := par.NewRNG(seed)
	var best []int32
	var bestCut int64 = -1
	for t := 0; t < trials; t++ {
		part := growOnce(g, rng.Intn(n), target0)
		cut := edgeCut(g, part, span)
		if bestCut < 0 || cut < bestCut {
			bestCut = cut
			best = part
		}
	}
	return best
}

// frontierItem is a lazy-deletion heap entry: stale entries (whose gain
// changed after insertion) are skipped at pop time.
type frontierItem struct {
	v    int32
	gain int64
}

type frontierHeap []frontierItem

func (h frontierHeap) Len() int            { return len(h) }
func (h frontierHeap) Less(i, j int) bool  { return h[i].gain > h[j].gain }
func (h frontierHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *frontierHeap) Push(x interface{}) { *h = append(*h, x.(frontierItem)) }
func (h *frontierHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

func growOnce(g *graph.Graph, start int, target int64) []int32 {
	n := g.N()
	part := make([]int32, n)
	for i := range part {
		part[i] = 1 // everything outside the region
	}

	inRegion := make([]bool, n)
	gain := make([]int64, n) // w(v -> region) - w(v -> outside)
	for u := int32(0); int(u) < n; u++ {
		_, wgt := g.Neighbors(u)
		var wd int64
		for _, w := range wgt {
			wd += w
		}
		gain[u] = -wd
	}

	h := &frontierHeap{}
	add := func(v int32) {
		inRegion[v] = true
		part[v] = 0
		adj, wgt := g.Neighbors(v)
		for k, u := range adj {
			if inRegion[u] {
				continue
			}
			gain[u] += 2 * wgt[k]
			heap.Push(h, frontierItem{u, gain[u]})
		}
	}

	var regionW int64
	v0 := int32(start)
	regionW += g.VertexWeight(v0)
	add(v0)
	for regionW < target {
		var v int32 = -1
		for h.Len() > 0 {
			it := heap.Pop(h).(frontierItem)
			if !inRegion[it.v] && gain[it.v] == it.gain {
				v = it.v
				break
			}
		}
		if v < 0 {
			// Frontier exhausted (cannot happen on a connected graph
			// before reaching half the weight, but guard anyway): absorb
			// any remaining outside vertex.
			for u := int32(0); int(u) < n; u++ {
				if !inRegion[u] {
					v = u
					break
				}
			}
			if v < 0 {
				break
			}
		}
		regionW += g.VertexWeight(v)
		add(v)
	}
	return part
}
