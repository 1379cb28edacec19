package partition

import (
	"fmt"
	"time"

	"mlcg/internal/coarsen"
	"mlcg/internal/graph"
	"mlcg/internal/obs"
	"mlcg/internal/par"
)

// KWayOptions configures recursive k-way partitioning.
type KWayOptions struct {
	// Mapper and Builder drive the multilevel coarsening of every
	// recursive bisection (nil means parallel HEC + sort construction).
	Mapper  coarsen.Mapper
	Builder coarsen.Builder
	FM      FMOptions
	Seed    uint64
	Workers int
	// PairwiseRounds runs KL-style pairwise FM refinement between
	// adjacent parts after the recursive bisection (0 disables).
	PairwiseRounds int
	// Span is the span every kernel of the partition opens its span
	// under; nil means obs.Ambient().
	Span *obs.Span
}

// KWayResult is the outcome of a k-way partition.
type KWayResult struct {
	Part    []int32 // part id in [0, k) per vertex
	Cut     int64   // total weight of edges crossing any part boundary
	Weights []int64 // vertex weight per part
	Elapsed time.Duration
}

// bisectFunc bisects sub with the given side-0 weight target, its kernels'
// spans under span.
type bisectFunc func(sub *graph.Graph, target0 int64, seed uint64, span *obs.Span) (*Result, error)

// KWayFM partitions g into k parts by recursive multilevel FM bisection —
// the standard Metis-style construction on top of the paper's bisection
// case study. Non-power-of-two k is handled with proportional split
// targets: a k-part problem peels off ceil(k/2)/k of the weight and
// recurses on both sides.
func KWayFM(g *graph.Graph, k int, opt KWayOptions) (*KWayResult, error) {
	if opt.Mapper == nil {
		opt.Mapper = coarsen.HEC{}
	}
	if opt.Builder == nil {
		opt.Builder = coarsen.BuildSort{}
	}
	return kway(g, k, opt, func(sub *graph.Graph, target0 int64, seed uint64, span *obs.Span) (*Result, error) {
		b := &FMBisector{
			Coarsener: coarsen.Coarsener{
				Mapper: opt.Mapper, Builder: opt.Builder,
				Seed: seed, Workers: opt.Workers,
			},
			FM:       opt.FM,
			Seed:     seed,
			TargetW0: target0,
		}
		return b.bisect(sub, span)
	})
}

// KWaySpectral partitions g into k parts by recursive multilevel spectral
// bisection (the paper's primary case-study pipeline, lifted to k-way).
func KWaySpectral(g *graph.Graph, k int, opt KWayOptions, fopt FiedlerOptions) (*KWayResult, error) {
	if opt.Mapper == nil {
		opt.Mapper = coarsen.HEC{}
	}
	if opt.Builder == nil {
		opt.Builder = coarsen.BuildSort{}
	}
	return kway(g, k, opt, func(sub *graph.Graph, target0 int64, seed uint64, span *obs.Span) (*Result, error) {
		b := &SpectralBisector{
			Coarsener: coarsen.Coarsener{
				Mapper: opt.Mapper, Builder: opt.Builder,
				Seed: seed, Workers: opt.Workers,
			},
			Fiedler:  fopt,
			Seed:     seed,
			TargetW0: target0,
		}
		return b.bisect(sub, span)
	})
}

func kway(g *graph.Graph, k int, opt KWayOptions, bisect bisectFunc) (*KWayResult, error) {
	if k < 1 {
		return nil, fmt.Errorf("partition: k = %d", k)
	}
	span := opt.Span
	if span == nil {
		span = obs.Ambient()
	}
	t0 := time.Now()
	part := make([]int32, g.N())
	if err := kwayRecurse(g, k, 0, part, nil, bisect, opt.Seed, span); err != nil {
		return nil, err
	}
	if opt.PairwiseRounds > 0 && k > 2 {
		refineKWayPairwise(g, part, k, opt.FM, opt.PairwiseRounds, span)
	}
	res := &KWayResult{
		Part:    part,
		Cut:     KWayEdgeCut(g, part),
		Weights: make([]int64, k),
		Elapsed: time.Since(t0),
	}
	for u := 0; u < g.N(); u++ {
		res.Weights[part[u]] += g.VertexWeight(int32(u))
	}
	return res, nil
}

// kwayRecurse assigns parts [base, base+k) to the vertices of sub (whose
// vertex u corresponds to original vertex ids[u]; ids == nil means
// identity).
func kwayRecurse(sub *graph.Graph, k int, base int32, part []int32, ids []int32, bisect bisectFunc, seed uint64, span *obs.Span) error {
	assign := func(u int32, p int32) {
		if ids == nil {
			part[u] = p
		} else {
			part[ids[u]] = p
		}
	}
	if k == 1 {
		for u := int32(0); u < sub.NumV; u++ {
			assign(u, base)
		}
		return nil
	}
	k0 := (k + 1) / 2
	target0 := sub.TotalVertexWeight() * int64(k0) / int64(k)
	r, err := bisect(sub, target0, seed, span)
	if err != nil {
		return fmt.Errorf("partition: k-way bisection (k=%d): %w", k, err)
	}

	// Build the two induced subgraphs and recurse.
	for side := int32(0); side <= 1; side++ {
		keep := make([]bool, sub.NumV)
		for u := int32(0); u < sub.NumV; u++ {
			keep[u] = r.Part[u] == side
		}
		piece, old := sub.InducedSubgraph(keep, par.Exec{Span: span})
		// Compose original ids: old indexes into sub; map through ids.
		orig := make([]int32, len(old))
		for i, u := range old {
			if ids == nil {
				orig[i] = u
			} else {
				orig[i] = ids[u]
			}
		}
		kk := k0
		bb := base
		if side == 1 {
			kk = k - k0
			bb = base + int32(k0)
		}
		// Tiny pieces can drop below the coarsening cutoff; the recursion
		// handles them the same way (the bisector copes with any size).
		if err := kwayRecurse(piece, kk, bb, part, orig, bisect, seed+uint64(k)*31+uint64(side), span); err != nil {
			return err
		}
	}
	return nil
}

// KWayEdgeCut returns the total weight of edges whose endpoints lie in
// different parts.
func KWayEdgeCut(g *graph.Graph, part []int32) int64 {
	var cut int64
	for u := int32(0); u < g.NumV; u++ {
		adj, wgt := g.Neighbors(u)
		for k, v := range adj {
			if u < v && part[u] != part[v] {
				cut += wgt[k]
			}
		}
	}
	return cut
}

// KWayImbalance returns max_i weight_i / (total/k) − 1, the standard load
// imbalance metric.
func KWayImbalance(g *graph.Graph, part []int32, k int) float64 {
	w := make([]int64, k)
	for u := 0; u < g.N(); u++ {
		w[part[u]] += g.VertexWeight(int32(u))
	}
	var max int64
	for _, x := range w {
		if x > max {
			max = x
		}
	}
	ideal := float64(g.TotalVertexWeight()) / float64(k)
	if ideal == 0 {
		return 0
	}
	return float64(max)/ideal - 1
}
