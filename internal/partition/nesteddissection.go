package partition

import (
	"mlcg/internal/coarsen"
	"mlcg/internal/graph"
	"mlcg/internal/obs"
	"mlcg/internal/par"
)

// NDOptions configures nested dissection ordering.
type NDOptions struct {
	Mapper  coarsen.Mapper
	Builder coarsen.Builder
	FM      FMOptions
	Seed    uint64
	Workers int
	// LeafSize stops the recursion; blocks at or below it are ordered
	// consecutively. Zero means 32.
	LeafSize int
}

// NestedDissection computes a fill-reducing elimination ordering by
// recursive bisection: each level bisects the (sub)graph with the
// multilevel FM pipeline, converts the edge cut into a vertex separator,
// orders both halves recursively, and numbers the separator vertices last
// — the ordering family Metis provides for sparse factorization, built
// here entirely from the paper's coarsening/partitioning machinery.
// Returns perm with perm[newPosition] = oldVertex.
func NestedDissection(g *graph.Graph, opt NDOptions) ([]int32, error) {
	if opt.Mapper == nil {
		opt.Mapper = coarsen.HEC{}
	}
	if opt.Builder == nil {
		opt.Builder = coarsen.BuildSort{}
	}
	leaf := opt.LeafSize
	if leaf <= 0 {
		leaf = 32
	}
	perm := make([]int32, 0, g.N())
	if err := ndRecurse(g, nil, opt, leaf, opt.Seed, &perm, obs.Ambient()); err != nil {
		return nil, err
	}
	return perm, nil
}

// ndRecurse appends sub's vertices (original ids via ids; nil = identity)
// to perm in nested-dissection order, its kernels' spans under span.
func ndRecurse(sub *graph.Graph, ids []int32, opt NDOptions, leaf int, seed uint64, perm *[]int32, span *obs.Span) error {
	orig := func(u int32) int32 {
		if ids == nil {
			return u
		}
		return ids[u]
	}
	if sub.N() <= leaf {
		for u := int32(0); u < sub.NumV; u++ {
			*perm = append(*perm, orig(u))
		}
		return nil
	}
	b := &FMBisector{
		Coarsener: coarsen.Coarsener{
			Mapper: opt.Mapper, Builder: opt.Builder,
			Seed: seed, Workers: opt.Workers,
		},
		FM:   opt.FM,
		Seed: seed,
	}
	r, err := b.bisect(sub, span)
	if err != nil {
		return err
	}
	sep := VertexSeparator(sub, r.Part)
	inSep := make([]bool, sub.NumV)
	for _, v := range sep {
		inSep[v] = true
	}
	// Recurse on each side minus the separator, then number the
	// separator last.
	for side := int32(0); side <= 1; side++ {
		keep := make([]bool, sub.NumV)
		any := false
		for u := int32(0); u < sub.NumV; u++ {
			if r.Part[u] == side && !inSep[u] {
				keep[u] = true
				any = true
			}
		}
		if !any {
			continue
		}
		piece, old := sub.InducedSubgraph(keep, par.Exec{Span: span})
		po := make([]int32, len(old))
		for i, u := range old {
			po[i] = orig(u)
		}
		if err := ndRecurse(piece, po, opt, leaf, seed*31+uint64(side)+1, perm, span); err != nil {
			return err
		}
	}
	for _, v := range sep {
		*perm = append(*perm, orig(v))
	}
	return nil
}

// EnvelopeSize returns Σ_u max(0, pos[u] − min pos of u's neighbors) under
// the ordering perm (perm[newPos] = oldVertex) — the profile/envelope
// metric orderings aim to shrink; used to evaluate NestedDissection.
func EnvelopeSize(g *graph.Graph, perm []int32) int64 {
	pos := make([]int64, g.N())
	for p, u := range perm {
		pos[u] = int64(p)
	}
	var total int64
	for u := int32(0); u < g.NumV; u++ {
		minNbr := pos[u]
		adj, _ := g.Neighbors(u)
		for _, v := range adj {
			if pos[v] < minNbr {
				minNbr = pos[v]
			}
		}
		total += pos[u] - minNbr
	}
	return total
}
