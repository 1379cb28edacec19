package embed

import (
	"fmt"
	"sort"

	"mlcg/internal/graph"
	"mlcg/internal/obs"
	"mlcg/internal/par"
)

// EvalSplit is a link-prediction evaluation instance: the training graph
// with the held-out edges removed, the held-out positives, and an equal
// number of degree-matched negative (non-)edges.
type EvalSplit struct {
	Train      *graph.Graph
	PosU, PosV []int32 // held-out true edges
	NegU, NegV []int32 // sampled non-edges, degree-matched to the graph
}

// SplitForEval holds out about frac of the edges of g as test positives
// and samples as many degree-matched negatives. Deterministic in seed.
//
// Edges are visited in a seeded random order; an edge is held out only
// while both endpoints keep residual degree >= 2, which protects the
// training graph from growing isolated vertices (the standard
// link-prediction protocol). Negative endpoints are drawn from the degree
// distribution of g — matching the degree profile of the positives — and
// rejected while they form a real edge or a self-loop.
func SplitForEval(g *graph.Graph, frac float64, seed uint64) (*EvalSplit, error) {
	if frac <= 0 || frac >= 1 {
		return nil, fmt.Errorf("embed: holdout fraction %v outside (0, 1)", frac)
	}
	n, m := g.N(), int(g.M())
	if m < 10 {
		return nil, fmt.Errorf("embed: graph too small to split (m=%d)", m)
	}
	target := int(float64(m)*frac + 0.5)
	if target < 1 {
		target = 1
	}

	// Enumerate undirected edges once, in CSR order.
	srcs := make([]int32, m)
	dsts := make([]int32, m)
	e := 0
	for u := int32(0); u < g.NumV; u++ {
		adj, _ := g.Neighbors(u)
		for _, v := range adj {
			if v > u {
				srcs[e], dsts[e] = u, v
				e++
			}
		}
	}

	// Greedy hold-out in seeded random order under the residual-degree rule.
	order := par.RandPerm(m, par.Mix64(seed^0x73706c69), par.Exec{Span: obs.Ambient()})
	deg := make([]int64, n)
	for u := 0; u < n; u++ {
		deg[u] = g.Degree(int32(u))
	}
	held := make([]bool, m)
	sp := &EvalSplit{}
	for _, oe := range order {
		if len(sp.PosU) >= target {
			break
		}
		u, v := srcs[oe], dsts[oe]
		if deg[u] < 2 || deg[v] < 2 {
			continue
		}
		deg[u]--
		deg[v]--
		held[oe] = true
		sp.PosU = append(sp.PosU, u)
		sp.PosV = append(sp.PosV, v)
	}
	if len(sp.PosU) == 0 {
		return nil, fmt.Errorf("embed: no edge satisfies the residual-degree hold-out rule")
	}

	// Training graph = the kept edges.
	kept := make([]graph.Edge, 0, m-len(sp.PosU))
	for i := 0; i < m; i++ {
		if !held[i] {
			w := int64(1)
			// Preserve the original edge weight.
			adj, wgt := g.Neighbors(srcs[i])
			for j, x := range adj {
				if x == dsts[i] {
					w = wgt[j]
					break
				}
			}
			kept = append(kept, graph.Edge{U: srcs[i], V: dsts[i], W: w})
		}
	}
	train, err := graph.FromEdges(n, kept)
	if err != nil {
		return nil, fmt.Errorf("embed: building training graph: %w", err)
	}
	sp.Train = train

	// Degree-matched negatives: endpoints from the degree distribution of
	// the full graph, rejected while they collide with a real edge.
	cum := make([]float64, n)
	var running float64
	for u := 0; u < n; u++ {
		running += float64(g.Degree(int32(u)))
		cum[u] = running
	}
	state := par.Mix64(seed ^ 0x6e656773)
	drawDeg := func() int32 {
		r := float64(par.SplitMix64(&state)>>11) / (1 << 53) * running
		i := sort.SearchFloat64s(cum, r)
		if i >= n {
			i = n - 1
		}
		return int32(i)
	}
	const negTries = 64
	for len(sp.NegU) < len(sp.PosU) {
		var a, b int32
		ok := false
		for try := 0; try < negTries; try++ {
			a, b = drawDeg(), drawDeg()
			if a != b && !g.HasEdge(a, b) {
				ok = true
				break
			}
		}
		if !ok {
			// Near-clique graphs can defeat degree-matched rejection; fall
			// back to uniform endpoints so the split always completes.
			for {
				a = int32(par.SplitMix64(&state) % uint64(n))
				b = int32(par.SplitMix64(&state) % uint64(n))
				if a != b && !g.HasEdge(a, b) {
					break
				}
			}
		}
		sp.NegU = append(sp.NegU, a)
		sp.NegV = append(sp.NegV, b)
	}
	return sp, nil
}

// LinkAUC computes the exact link-prediction AUC of e on the split: the
// probability that a held-out edge scores above a sampled non-edge, with
// ties counted half (the rank-sum estimator, no sampling noise).
func LinkAUC(e *Embedding, sp *EvalSplit) float64 {
	np, nn := len(sp.PosU), len(sp.NegU)
	if np == 0 || nn == 0 {
		return 0
	}
	type scored struct {
		s   float64
		pos bool
	}
	all := make([]scored, 0, np+nn)
	for i := range sp.PosU {
		all = append(all, scored{e.Score(sp.PosU[i], sp.PosV[i]), true})
	}
	for i := range sp.NegU {
		all = append(all, scored{e.Score(sp.NegU[i], sp.NegV[i]), false})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].s < all[j].s })
	// Sum positive ranks with average ranks over tie groups. j starts past
	// i so the loop advances even on NaN scores (NaN != NaN would otherwise
	// produce an empty "tie group" and spin forever).
	var rankSum float64
	for i := 0; i < len(all); {
		j := i + 1
		for j < len(all) && all[j].s == all[i].s {
			j++
		}
		avgRank := float64(i+j-1)/2 + 1 // 1-based average rank of the tie group
		for k := i; k < j; k++ {
			if all[k].pos {
				rankSum += avgRank
			}
		}
		i = j
	}
	return (rankSum - float64(np)*float64(np+1)/2) / (float64(np) * float64(nn))
}
