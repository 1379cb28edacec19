// Package cluster implements multilevel graph clustering on top of the
// coarsening substrate — the application direction the paper names in
// Section III.C ("we plan to use our new coarse mapping and/or graph
// construction methods in place of the coarsening routines in well-known
// multilevel methods for graph clustering"). The pipeline is the classic
// multilevel scheme: coarsen until the requested number of clusters
// remain, seed one cluster per vertex of the coarsest level that still has
// that many vertices, and walk back up the hierarchy (coarsen.Uncoarsen,
// "cluster" level spans) refining with modularity-driven local moving
// sweeps at every level. Louvain instead contracts its own clusters round
// by round and projects each round's labels onto the input with
// coarsen.Project.
package cluster

import (
	"context"
	"fmt"

	"mlcg/internal/coarsen"
	"mlcg/internal/graph"
	"mlcg/internal/obs"
	"mlcg/internal/par"
)

// Options configures multilevel clustering.
type Options struct {
	// TargetClusters stops coarsening at this cluster count: clustering
	// seeds from the coarsest level that still has this many vertices,
	// and the refinement can merge further. Zero means 16.
	TargetClusters int
	// Mapper and Builder drive the coarsening; nil means HEC + sort, the
	// paper's recommended pair.
	Mapper  coarsen.Mapper
	Builder coarsen.Builder
	// RefinePasses bounds the local-moving sweeps per level; zero means
	// 4, negative disables refinement.
	RefinePasses int
	Seed         uint64
	Workers      int
	// Span is the span the coarsening and contraction kernels open their
	// spans under; nil means obs.Ambient().
	Span *obs.Span
}

// span resolves the span the run's kernels open their spans under.
func (o Options) span() *obs.Span {
	if o.Span != nil {
		return o.Span
	}
	return obs.Ambient()
}

// Result is a clustering of the input graph.
type Result struct {
	Labels     []int32 // cluster id per vertex, compact in [0, K)
	K          int32
	Modularity float64
	Levels     int
}

// Multilevel clusters g.
func Multilevel(g *graph.Graph, opt Options) (*Result, error) {
	n := g.N()
	if n == 0 {
		return &Result{}, nil
	}
	target := opt.TargetClusters
	if target <= 0 {
		target = 16
	}
	if opt.Mapper == nil {
		opt.Mapper = coarsen.HEC{}
	}
	if opt.Builder == nil {
		opt.Builder = coarsen.BuildSort{}
	}
	passes := opt.RefinePasses
	if passes == 0 {
		passes = 4
	}

	c := coarsen.Coarsener{
		Mapper: opt.Mapper, Builder: opt.Builder,
		Cutoff: target, DiscardBelow: -1,
		Seed: opt.Seed, Workers: opt.Workers,
	}
	span := opt.span()
	h, err := c.RunCtx(obs.ContextWithSpan(context.Background(), span), g)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}

	// Seed from the coarsest level that still has target vertices (level 0
	// if the input is smaller). Coarsening stops at the first level at or
	// below the target, and local moving can merge clusters but never split
	// one, so a last step that overshoots far past the target (aggressive
	// mappers like MIS2 do) would cap the result.
	seedLevel := h.Levels()
	for seedLevel > 0 && h.Graphs[seedLevel].N() < target {
		seedLevel--
	}

	// Local moving needs each coarse vertex's self-weight so that
	// coarse-level moves optimize the FINE graph's modularity (Louvain keeps
	// self-loops for exactly this reason; this module's graphs do not store
	// them).
	selfW := SelfWeights(h, seedLevel)

	mTotal := float64(g.TotalEdgeWeight())
	labels, _ := coarsen.Uncoarsen(h, seedLevel, identity(h.Graphs[seedLevel].N()), "cluster",
		par.Exec{P: opt.Workers, Span: span},
		func(i int, lg *graph.Graph, labels []int32, _ par.Exec) ([]int32, error) {
			if passes > 0 {
				localMoving(lg, labels, passes, selfW[i], mTotal)
			}
			return labels, nil
		}, coarsen.Project[int32])
	k := compactLabels(labels)
	return &Result{
		Labels:     labels,
		K:          k,
		Modularity: Modularity(g, labels),
		Levels:     h.Levels(),
	}, nil
}

// SelfWeights returns, for levels 0..to of h, the intra-aggregate weight
// each vertex carries: the total weight of the level-0 edges that the
// mappings below it fold inside its aggregate. Level 0 carries none, so its
// entry is nil. ModularityCarried on level i with SelfWeights(h, i)[i] is
// Modularity of the labeling projected to level 0.
func SelfWeights(h *coarsen.Hierarchy, to int) [][]int64 {
	selfW := make([][]int64, to+1)
	for i := 0; i < to; i++ {
		selfW[i+1] = carrySelfWeight(h.Graphs[i], h.Maps[i], h.Graphs[i+1], selfW[i])
	}
	return selfW
}

// carrySelfWeight returns the intra-aggregate weight each vertex of
// coarse, the contraction of g by the mapping m, carries: the weight its
// members inherited in selfW plus the weight of the edges of g that m
// folds inside it. It counts the folded edges from weighted degrees, with
// no branch per edge: the members' degrees count each folded edge twice
// and each edge that leaves the aggregate once, and the aggregate's degree
// in coarse counts the leaving edges once.
func carrySelfWeight(g *graph.Graph, m []int32, coarse *graph.Graph, selfW []int64) []int64 {
	sw := make([]int64, coarse.NumV)
	for u := int32(0); u < g.NumV; u++ {
		sw[m[u]] += weightedDegree(g, u)
	}
	for u, w := range selfW {
		sw[m[u]] += 2 * w
	}
	for a := range sw {
		sw[a] = (sw[a] - weightedDegree(coarse, int32(a))) / 2
	}
	return sw
}

// weightedDegree returns the total weight of u's edges.
func weightedDegree(g *graph.Graph, u int32) int64 {
	_, wgt := g.Neighbors(u)
	var d int64
	for _, w := range wgt {
		d += w
	}
	return d
}

// identity returns the labels 0, 1, ..., n−1: every vertex its own cluster.
func identity(n int) []int32 {
	labels := make([]int32, n)
	for i := range labels {
		labels[i] = int32(i)
	}
	return labels
}

// Louvain runs the full Louvain method with this module's own coarse
// graph construction doing the contraction: local moving to a fixpoint,
// contract the clusters into a coarse graph (each cluster one vertex,
// inter-cluster weights merged by the coarsen builders), and repeat until
// modularity stops improving. Unlike Multilevel, the cluster count is
// chosen by the modularity landscape rather than a target.
func Louvain(g *graph.Graph, opt Options) (*Result, error) {
	n := g.N()
	if n == 0 {
		return &Result{}, nil
	}
	if opt.Builder == nil {
		opt.Builder = coarsen.BuildSort{}
	}
	passes := opt.RefinePasses
	if passes <= 0 {
		passes = 8
	}
	mTotal := float64(g.TotalEdgeWeight())
	ex := par.Exec{P: opt.Workers, Span: opt.span()}

	cur := g
	selfW := make([]int64, n)
	// fine maps every input vertex onto its cluster at the current level:
	// each round's labels are projected through it.
	fine := identity(n)
	levels := 0
	prevQ := -1.0
	for round := 0; round < 40; round++ {
		labels := identity(cur.N())
		localMoving(cur, labels, passes, selfW, mTotal)
		k := compactLabels(labels)
		if int(k) == cur.N() {
			break // no merge happened: converged
		}
		levels++

		// Contract via the module's construction machinery.
		m := &coarsen.Mapping{M: labels, NC: k}
		next, err := opt.Builder.Build(cur, m, ex)
		if err != nil {
			return nil, fmt.Errorf("cluster: louvain contraction: %w", err)
		}
		// Carry internal weight into the next level's self-loops.
		selfW = carrySelfWeight(cur, labels, next, selfW)
		cur = next

		// Project to the fine graph and check progress.
		fine = coarsen.Project(labels, fine, ex)
		q := Modularity(g, fine)
		if q <= prevQ+1e-9 {
			break
		}
		prevQ = q
		if cur.N() <= 1 {
			break
		}
	}
	k := compactLabels(fine)
	return &Result{
		Labels:     fine,
		K:          k,
		Modularity: Modularity(g, fine),
		Levels:     levels,
	}, nil
}

// Modularity returns Newman's weighted modularity
// Q = Σ_c [ in_c/m − (tot_c / 2m)² ], where in_c is the intra-cluster
// edge weight, tot_c the total weighted degree of c, and m the total edge
// weight. Q ∈ [−1/2, 1). It is ModularityCarried with no self-weights, so
// it sums in int64 and each value is exact up to the final float64
// formula; for 2m < 2^53 that is the value float64 sums give too.
func Modularity(g *graph.Graph, labels []int32) float64 {
	return ModularityCarried(g, labels, nil)
}

// ModularityCarried is the modularity of labels on a graph whose vertex u
// stands for an aggregate with internal edge weight selfW[u] (nil means
// none): in_c adds Σ_{u∈c} selfW[u], tot_c adds 2·selfW[u] per member, and
// m adds Σ selfW. in_c, tot_c and m accumulate in int64 and are converted
// once each, so the value is the exact sums' formula. On level i of a
// hierarchy with SelfWeights(h, i)[i] the three sums equal those of the
// labeling projected to level 0, so the two evaluations agree bit for bit.
func ModularityCarried(g *graph.Graph, labels []int32, selfW []int64) float64 {
	mInt := g.TotalEdgeWeight()
	for _, w := range selfW {
		mInt += w
	}
	m := float64(mInt)
	if m == 0 {
		return 0
	}
	var k int32
	for _, l := range labels {
		if l+1 > k {
			k = l + 1
		}
	}
	in := make([]int64, k)
	tot := make([]int64, k)
	for u := int32(0); u < g.NumV; u++ {
		c := labels[u]
		adj, wgt := g.Neighbors(u)
		for kk, v := range adj {
			tot[c] += wgt[kk]
			if c == labels[v] && u < v {
				in[c] += wgt[kk]
			}
		}
		if selfW != nil {
			in[c] += selfW[u]
			tot[c] += 2 * selfW[u]
		}
	}
	var q float64
	for c := int32(0); c < k; c++ {
		inC, totC := float64(in[c]), float64(tot[c])
		q += inC/m - (totC/(2*m))*(totC/(2*m))
	}
	return q
}

// localMoving runs modularity-ascent sweeps: each vertex moves to the
// neighboring cluster with the highest modularity gain, until a sweep
// makes no move or the pass budget runs out. Sequential (the refinement
// analog of the paper's sequential FM). selfW carries each vertex's
// internal (contracted) weight and mTotal the FINE graph's total edge
// weight, so the gains computed on a coarse level equal the fine-level
// modularity deltas.
func localMoving(g *graph.Graph, labels []int32, maxPasses int, selfW []int64, mTotal float64) {
	n := g.N()
	m2 := 2 * mTotal
	if m2 == 0 {
		return
	}
	// Weighted degree per vertex (including twice the self-loop weight,
	// as in a standard Louvain contraction) and total per cluster.
	deg := make([]float64, n)
	var k int32
	for _, l := range labels {
		if l+1 > k {
			k = l + 1
		}
	}
	tot := make([]float64, k)
	for u := 0; u < n; u++ {
		_, wgt := g.Neighbors(int32(u))
		for _, w := range wgt {
			deg[u] += float64(w)
		}
		if selfW != nil {
			deg[u] += 2 * float64(selfW[u])
		}
		tot[labels[u]] += deg[u]
	}

	// Stamped scratch accumulator: O(deg) per vertex with no map overhead.
	acc := make([]float64, k)
	stamp := make([]int32, k)
	touched := make([]int32, 0, 64)
	version := int32(0)
	for pass := 0; pass < maxPasses; pass++ {
		moved := 0
		for u := int32(0); int(u) < n; u++ {
			cur := labels[u]
			adj, wgt := g.Neighbors(u)
			version++
			touched = touched[:0]
			accOf := func(c int32) float64 {
				if stamp[c] != version {
					return 0
				}
				return acc[c]
			}
			for kk, v := range adj {
				c := labels[v]
				if stamp[c] != version {
					stamp[c] = version
					acc[c] = 0
					touched = append(touched, c)
				}
				acc[c] += float64(wgt[kk])
			}
			// Gain of moving u into cluster c (relative to isolation):
			// w(u→c)/m − deg_u·tot_c/(2m²); compare against staying.
			best := cur
			bestGain := accOf(cur) - deg[u]*(tot[cur]-deg[u])/m2
			for _, c := range touched {
				if c == cur {
					continue
				}
				gain := acc[c] - deg[u]*tot[c]/m2
				if gain > bestGain+1e-12 {
					best = c
					bestGain = gain
				}
			}
			if best != cur {
				tot[cur] -= deg[u]
				tot[best] += deg[u]
				labels[u] = best
				moved++
			}
		}
		if moved == 0 {
			break
		}
	}
}

// compactLabels renumbers labels to [0, K) in place and returns K.
func compactLabels(labels []int32) int32 {
	remap := map[int32]int32{}
	var k int32
	for i, l := range labels {
		nl, ok := remap[l]
		if !ok {
			nl = k
			remap[l] = nl
			k++
		}
		labels[i] = nl
	}
	return k
}
