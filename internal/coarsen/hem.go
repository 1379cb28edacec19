package coarsen

import (
	"mlcg/internal/graph"
	"mlcg/internal/obs"
	"mlcg/internal/par"
)

// HEMSeq is the sequential Heavy Edge Matching algorithm (Algorithm 2):
// vertices are visited in random order; an unmatched vertex pairs with its
// heaviest unmatched neighbor, or becomes a singleton when none exists.
// Because aggregates have at most two vertices, the coarsening ratio is at
// most two.
type HEMSeq struct{}

// Name implements Mapper.
func (HEMSeq) Name() string { return "hemseq" }

// Map implements Mapper.
func (HEMSeq) Map(g *graph.Graph, seed uint64, ex par.Exec) (*Mapping, error) {
	n := g.N()
	perm := par.RandPerm(n, seed, ex)
	pos := par.InversePerm(perm, ex)
	m := make([]int32, n)
	for i := range m {
		m[i] = unset
	}
	// Root-vertex labels (the visited vertex anchors its aggregate);
	// canonicalize turns them into the canonical dense ids.
	for _, u := range perm {
		if m[u] != unset {
			continue
		}
		adj, wgt := g.Neighbors(u)
		var bw int64
		x := unset
		for k, v := range adj {
			if m[v] == unset && wgt[k] > bw {
				bw = wgt[k]
				x = v
			}
		}
		if x != unset {
			m[x] = u
		}
		m[u] = u
	}
	nc := canonicalize(m, pos, ex)
	return &Mapping{M: m, NC: nc, Passes: 1, PassMapped: []int64{int64(n)}}, nil
}

// HEM is the parallel heavy edge matching (tech-report Algorithm 10),
// built on the same deterministic reservation rounds as HEC with one
// distinction: the heaviest neighbor is chosen among unmatched vertices,
// so the heavy array is recomputed for the unassigned vertices after each
// pass, and there are no inherit edges — an operation whose partner was
// matched away simply retries against a fresh H next pass.
type HEM struct {
	MaxPasses int // 0 means the default of 64
}

// Name implements Mapper.
func (HEM) Name() string { return "hem" }

// Map implements Mapper.
func (h HEM) Map(g *graph.Graph, seed uint64, ex par.Exec) (*Mapping, error) {
	match, pos, passes, passMapped := hemMatch(g, seed, ex, h.MaxPasses, true)
	m, nc := matchToMapping(match, pos, ex)
	return &Mapping{M: m, NC: nc, Passes: passes, PassMapped: passMapped}, nil
}

// hemMatch runs the deterministic parallel HEM passes and returns the
// match array — match[u] == v and match[v] == u for matched pairs,
// match[u] == u for singletons, unset for unmatched vertices — along with
// the permutation positions used (for canonical relabeling downstream).
// When singletons is true, vertices with no unmatched neighbor are
// finalized as singletons (plain HEM); when false they are left unmatched
// for the two-hop phases.
//
// Each pass is one reservation round: every unmatched vertex u proposes
// the pair {u, hv[u]} and reserves both cells with an atomic-min on
// pos[u]; proposals holding the minimum on both cells commit. The winners
// depend only on (graph, seed), never on scheduling, and the
// minimum-position pending proposal always commits, so passes make
// progress until only neighborless vertices remain.
func hemMatch(g *graph.Graph, seed uint64, ex par.Exec, maxPasses int, singletons bool) (match, pos []int32, passes int, passMapped []int64) {
	n := g.N()
	if maxPasses <= 0 {
		maxPasses = 64
	}
	perm := par.RandPerm(n, seed, ex)
	pos = par.InversePerm(perm, ex)

	match = make([]int32, n)
	par.Fill(match, unset, ex)
	res := make([]int32, n)
	inf := int32(n)

	queue := perm
	for len(queue) > 0 && passes < maxPasses {
		passes++
		px := ex.Kernel("hem:pass")
		span := px.Span
		hv := heavyUnmatchedNeighbors(g, match, pos, px)
		// Reservable cells all belong to queued vertices (proposal targets
		// are unmatched), so resetting the queue's cells covers them.
		par.ForEach(len(queue), px, func(i int) {
			res[queue[i]] = inf
		})
		// Reservation issue and CAS-retry counts batch per chunk (one
		// flush each — free when tracing is off).
		par.ForChunked(len(queue), px, 512, func(_, lo, hi int) {
			var reserves, retries int64
			for i := lo; i < hi; i++ {
				u := queue[i]
				v := hv[u]
				if v == u {
					continue // no unmatched neighbor; handled in the commit wave
				}
				retries += par.AtomicMinInt32Retries(&res[u], pos[u])
				retries += par.AtomicMinInt32Retries(&res[v], pos[u])
				reserves += 2
			}
			span.Add(obs.CtrReserve, reserves)
			span.Add(obs.CtrCASRetry, retries)
		})
		par.ForChunked(len(queue), px, 512, func(_, lo, hi int) {
			var commits int64
			for i := lo; i < hi; i++ {
				u := queue[i]
				v := hv[u]
				if v == u {
					// A vertex whose neighbors are all matched can never be
					// proposed to (a proposer would be its unmatched neighbor),
					// so finalizing it is always safe.
					if singletons {
						match[u] = u
						commits++
					}
					continue
				}
				if res[u] == pos[u] && res[v] == pos[u] {
					match[u] = v
					match[v] = u
					commits++
				}
			}
			span.Add(obs.CtrCommit, commits)
		})
		next := par.Pack(len(queue), px, func(i int) bool {
			return match[queue[i]] == unset
		})
		matched := int64(len(queue) - len(next))
		passMapped = append(passMapped, matched)
		q2 := make([]int32, len(next))
		par.ForEach(len(next), px, func(i int) {
			q2[i] = queue[next[i]]
		})
		queue = q2
		span.End()
		if matched == 0 {
			// Only vertices with no unmatched neighbors remain (and
			// singletons is false, or they would have been finalized);
			// terminal for pure matching.
			break
		}
	}
	if singletons && len(queue) > 0 {
		for _, u := range queue {
			if match[u] == unset {
				match[u] = u
			}
		}
		passMapped = append(passMapped, int64(len(queue)))
		passes++
	}
	return match, pos, passes, passMapped
}

// matchToMapping converts a complete match array (no unset entries) into a
// canonically labeled compact mapping. The root of a pair is the lower
// vertex id; canonicalize then relabels by minimum permutation position.
func matchToMapping(match, pos []int32, ex par.Exec) ([]int32, int32) {
	n := len(match)
	m := make([]int32, n)
	par.ForEach(n, ex, func(i int) {
		u := int32(i)
		v := match[u]
		if v == unset {
			panic("coarsen: matchToMapping on incomplete match")
		}
		if v < u {
			m[u] = v
		} else {
			m[u] = u
		}
	})
	nc := canonicalize(m, pos, ex)
	return m, nc
}
