package partition

import (
	"cmp"
	"slices"

	"mlcg/internal/graph"
	"mlcg/internal/obs"
	"mlcg/internal/par"
)

// RefineKWayPairwise improves a k-way partition with pairwise FM: for
// every pair of parts that share boundary edges, the induced two-part
// subproblem is re-refined with the bisection FM and written back. Rounds
// repeat until no pair improves or maxRounds is hit. Returns the final
// k-way cut. This is the classic Kernighan–Lin-style k-way cleanup on top
// of recursive bisection. A round visits the pairs in (a, b) order, so the
// result is deterministic.
func RefineKWayPairwise(g *graph.Graph, part []int32, k int, opt FMOptions, maxRounds int) int64 {
	return refineKWayPairwise(g, part, k, opt, maxRounds, obs.Ambient())
}

// refineKWayPairwise is RefineKWayPairwise with its kernels' spans under
// span.
func refineKWayPairwise(g *graph.Graph, part []int32, k int, opt FMOptions, maxRounds int, span *obs.Span) int64 {
	if maxRounds <= 0 {
		maxRounds = 2
	}
	cut := KWayEdgeCut(g, part)
	for round := 0; round < maxRounds; round++ {
		// Find adjacent part pairs.
		adjacent := map[[2]int32]bool{}
		for u := int32(0); u < g.NumV; u++ {
			adj, _ := g.Neighbors(u)
			for _, v := range adj {
				a, b := part[u], part[v]
				if a == b {
					continue
				}
				if a > b {
					a, b = b, a
				}
				adjacent[[2]int32{a, b}] = true
			}
		}
		// Each refinement changes the parts the next one sees, so the
		// visiting order fixes the result.
		pairs := make([][2]int32, 0, len(adjacent))
		for pair := range adjacent {
			pairs = append(pairs, pair)
		}
		slices.SortFunc(pairs, func(x, y [2]int32) int {
			return cmp.Or(cmp.Compare(x[0], y[0]), cmp.Compare(x[1], y[1]))
		})
		improved := false
		for _, pair := range pairs {
			if refinePair(g, part, pair[0], pair[1], opt, span) {
				improved = true
			}
		}
		newCut := KWayEdgeCut(g, part)
		if !improved || newCut >= cut {
			cut = newCut
			break
		}
		cut = newCut
	}
	return cut
}

// refinePair runs bisection FM on the subgraph induced by parts a and b,
// keeping each side's weight at its pre-refinement value (so the global
// k-way balance is preserved). Reports whether the pair's cut improved.
func refinePair(g *graph.Graph, part []int32, a, b int32, opt FMOptions, span *obs.Span) bool {
	keep := make([]bool, g.N())
	count := 0
	for u := int32(0); u < g.NumV; u++ {
		if part[u] == a || part[u] == b {
			keep[u] = true
			count++
		}
	}
	if count < 2 {
		return false
	}
	sub, ids := g.InducedSubgraph(keep, par.Exec{Span: span})
	local := make([]int32, sub.N())
	var wa int64
	for i, old := range ids {
		if part[old] == a {
			local[i] = 0
			wa += g.VertexWeight(old)
		} else {
			local[i] = 1
		}
	}
	before := edgeCut(sub, local, span)
	lopt := opt
	lopt.TargetW0 = wa
	after := refineFM(sub, local, lopt, span)
	if after >= before {
		return false
	}
	for i, old := range ids {
		if local[i] == 0 {
			part[old] = a
		} else {
			part[old] = b
		}
	}
	return true
}
