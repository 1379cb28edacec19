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

	// Per-level self-loop weights: the intra-aggregate weight each coarse
	// vertex carries. Local moving needs them so that coarse-level moves
	// optimize the FINE graph's modularity (Louvain keeps self-loops for
	// exactly this reason; this module's graphs do not store them).
	selfW := make([][]int64, seedLevel+1)
	selfW[0] = make([]int64, n) // fine vertices carry none
	for i := 0; i < seedLevel; i++ {
		selfW[i+1] = carrySelfWeight(h.Graphs[i], h.Maps[i], h.Graphs[i+1].N(), selfW[i])
	}

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

// carrySelfWeight returns the intra-aggregate weight each coarse vertex of
// the mapping m (nc coarse vertices) carries: the weight its members
// inherited in selfW plus the weight of the edges of g that m folds inside
// it.
func carrySelfWeight(g *graph.Graph, m []int32, nc int, selfW []int64) []int64 {
	sw := make([]int64, nc)
	for u, w := range selfW {
		sw[m[u]] += w
	}
	for u := int32(0); u < g.NumV; u++ {
		adj, wgt := g.Neighbors(u)
		for k, v := range adj {
			if u < v && m[u] == m[v] {
				sw[m[u]] += wgt[k]
			}
		}
	}
	return sw
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
		selfW = carrySelfWeight(cur, labels, int(k), selfW)
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
// weight. Q ∈ [−1/2, 1).
func Modularity(g *graph.Graph, labels []int32) float64 {
	m := float64(g.TotalEdgeWeight())
	if m == 0 {
		return 0
	}
	var k int32
	for _, l := range labels {
		if l+1 > k {
			k = l + 1
		}
	}
	in := make([]float64, k)
	tot := make([]float64, k)
	for u := int32(0); u < g.NumV; u++ {
		adj, wgt := g.Neighbors(u)
		for kk, v := range adj {
			w := float64(wgt[kk])
			tot[labels[u]] += w
			if labels[u] == labels[v] && u < v {
				in[labels[u]] += w
			}
		}
	}
	var q float64
	for c := int32(0); c < k; c++ {
		q += in[c]/m - (tot[c]/(2*m))*(tot[c]/(2*m))
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
