package coarsen

import (
	"mlcg/internal/graph"
	"mlcg/internal/obs"
	"mlcg/internal/par"
)

// TwoHop is the mt-Metis coarsening scheme (LaSalle et al.), new to the
// GPU in the paper: parallel HEM first, then — if too many vertices remain
// unmatched — two-hop matches, which contract vertices that are not
// adjacent but share a neighbor. The two-hop sub-classes run in order and
// each is skipped once the unmatched ratio falls below the threshold:
// leaves (degree-1 vertices hanging off the same vertex), twins (vertices
// with identical adjacency lists), and relatives (any two unmatched
// vertices sharing a neighbor).
type TwoHop struct {
	MaxPasses int // HEM pass bound, 0 means default

	// UnmatchedThreshold is the fraction of unmatched vertices above which
	// the next two-hop phase runs; mt-Metis uses a comparable constant.
	// Zero means the default of 0.10.
	UnmatchedThreshold float64

	// MaxTwinDegree bounds the adjacency-list comparison for twin
	// matching; mt-Metis uses a similar cap. Zero means the default of 64.
	MaxTwinDegree int
}

// Name implements Mapper.
func (TwoHop) Name() string { return "twohop" }

// Map implements Mapper.
func (t TwoHop) Map(g *graph.Graph, seed uint64, ex par.Exec) (*Mapping, error) {
	n := g.N()
	threshold := t.UnmatchedThreshold
	if threshold <= 0 {
		threshold = 0.10
	}
	maxTwinDeg := t.MaxTwinDegree
	if maxTwinDeg <= 0 {
		maxTwinDeg = 64
	}
	match, pos, passes, passMapped := hemMatch(g, seed, ex, t.MaxPasses, false)

	unmatchedRatio := func() float64 {
		if n == 0 {
			return 0
		}
		c := par.CountInt64(n, ex, func(i int) bool { return match[i] == unset })
		return float64(c) / float64(n)
	}
	if unmatchedRatio() > threshold {
		kx := ex.Kernel("twohop:leaf")
		leafMatch(g, match, kx)
		kx.Span.End()
	}
	if unmatchedRatio() > threshold {
		kx := ex.Kernel("twohop:twin")
		twinMatch(g, match, kx, maxTwinDeg, seed)
		kx.Span.End()
	}
	if unmatchedRatio() > threshold {
		kx := ex.Kernel("twohop:relative")
		relativeMatch(g, match, pos, kx)
		kx.Span.End()
	}
	// Whatever is still unmatched becomes a singleton.
	par.ForEach(n, ex, func(i int) {
		if match[i] == unset {
			match[i] = int32(i)
		}
	})
	m, nc := matchToMapping(match, pos, ex)
	return &Mapping{M: m, NC: nc, Passes: passes, PassMapped: passMapped}, nil
}

// leafMatch pairs up unmatched degree-1 vertices that hang off the same
// vertex (tech-report Algorithm 11). A degree-1 vertex is reachable only
// through its unique neighbor, so iterating over potential centers gives
// each leaf exactly one owner and the phase needs no synchronization
// beyond the parallel loop.
func leafMatch(g *graph.Graph, match []int32, ex par.Exec) {
	par.ForEachChunked(g.N(), ex, 256, func(i int) {
		v := int32(i)
		adj, _ := g.Neighbors(v)
		if len(adj) < 2 {
			return
		}
		prev := unset
		for _, u := range adj {
			if match[u] != unset || g.Degree(u) != 1 {
				continue
			}
			if prev == unset {
				prev = u
				continue
			}
			match[prev] = u
			match[u] = prev
			prev = unset
		}
	})
}

// twinMatch pairs unmatched vertices with identical adjacency lists
// (tech-report Algorithm 12). Candidate groups are found by hashing each
// sorted adjacency list and sorting the (hash, vertex) pairs; hash
// collisions are resolved by comparing the actual lists. Twins are never
// adjacent (a vertex cannot appear in its own adjacency list), so pairing
// them is always a valid two-hop contraction.
func twinMatch(g *graph.Graph, match []int32, ex par.Exec, maxDeg int, seed uint64) {
	n := g.N()
	cand := par.Pack(n, ex, func(i int) bool {
		d := g.Degree(int32(i))
		return match[i] == unset && d >= 1 && d <= int64(maxDeg)
	})
	if len(cand) < 2 {
		return
	}
	keys := make([]uint64, len(cand))
	vals := make([]uint64, len(cand))
	scratch := make([]twinScratch, par.Workers(ex.P, len(cand)))
	par.For(len(cand), ex, func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			u := cand[i]
			keys[i] = adjacencyHash(g, u, &scratch[w], seed)
			vals[i] = uint64(u)
		}
	})
	par.RadixSortPairs(keys, vals, ex)
	// Walk hash groups; within a group, greedily pair verified twins.
	// Groups are disjoint vertex sets, so this loop could be parallelized
	// over group boundaries; group sizes are tiny in practice and the scan
	// is linear, so it runs sequentially for simplicity.
	var s1, s2 twinScratch
	for lo := 0; lo < len(keys); {
		hi := lo + 1
		for hi < len(keys) && keys[hi] == keys[lo] {
			hi++
		}
		if hi-lo >= 2 {
			prevIdx := -1
			for i := lo; i < hi; i++ {
				u := int32(vals[i])
				if match[u] != unset {
					continue
				}
				if prevIdx < 0 {
					prevIdx = i
					continue
				}
				v := int32(vals[prevIdx])
				if sameAdjacency(g, u, v, &s1, &s2) {
					match[u] = v
					match[v] = u
					prevIdx = -1
				}
			}
		}
		lo = hi
	}
	// The per-vertex sorts' radix passes reach the span once per call.
	passes := s1.sort.TakePasses() + s2.sort.TakePasses()
	for w := range scratch {
		passes += scratch[w].sort.TakePasses()
	}
	ex.Span.Add(obs.CtrRadixPass, passes)
}

// twinScratch holds one goroutine's buffers for sorted adjacency copies.
type twinScratch struct {
	ids  []int32
	wgts []int64 // sort payload; twin identity ignores weights
	sort par.SortScratch
}

// sortedNeighbors returns u's neighbor ids sorted ascending, in s.ids.
func (s *twinScratch) sortedNeighbors(g *graph.Graph, u int32) []int32 {
	adj, _ := g.Neighbors(u)
	s.ids = append(s.ids[:0], adj...)
	if cap(s.wgts) < len(adj) {
		s.wgts = make([]int64, len(adj))
	}
	par.SortPairsInt32Scratch(s.ids, s.wgts[:len(adj)], &s.sort)
	return s.ids
}

// adjacencyHash returns an order-independent-but-verified hash of u's
// neighbor ids: the list is copied, sorted, and FNV-style mixed, so equal
// lists always collide and unequal lists almost never do.
func adjacencyHash(g *graph.Graph, u int32, s *twinScratch, seed uint64) uint64 {
	ids := s.sortedNeighbors(g, u)
	h := par.Mix64(seed ^ uint64(len(ids)))
	for _, v := range ids {
		h = par.Mix64(h ^ uint64(uint32(v)))
	}
	return h
}

// sameAdjacency reports whether u and v have identical neighbor sets.
func sameAdjacency(g *graph.Graph, u, v int32, s1, s2 *twinScratch) bool {
	if g.Degree(u) != g.Degree(v) {
		return false
	}
	b1 := s1.sortedNeighbors(g, u)
	b2 := s2.sortedNeighbors(g, v)
	for i := range b1 {
		if b1[i] != b2[i] {
			return false
		}
	}
	return true
}

// relativeMatch pairs unmatched vertices that share any neighbor
// (tech-report Algorithm 13), deterministically. The historical version
// CAS-claimed candidates, so which center paired a shared candidate
// depended on thread interleaving. Here every unmatched vertex instead
// elects a unique owner — its minimum-position neighbor that could act as
// a center (at least two unmatched neighbors) — and each center then pairs
// exactly the candidates it owns, in adjacency order. Ownership is a pure
// function of the frozen match state, so the pairing is identical for
// every worker count; writes are exclusive because owners partition the
// candidates.
func relativeMatch(g *graph.Graph, match, pos []int32, ex par.Exec) {
	n := g.N()
	// unmatchedDeg[v]: how many unmatched neighbors v has, against the
	// frozen pre-phase match state.
	unmatchedDeg := make([]int32, n)
	par.ForEachChunked(n, ex, 256, func(i int) {
		v := int32(i)
		adj, _ := g.Neighbors(v)
		var c int32
		for _, u := range adj {
			if match[u] == unset {
				c++
			}
		}
		unmatchedDeg[v] = c
	})
	// owner[u]: the elected center for unmatched u, or unset.
	owner := make([]int32, n)
	par.ForEachChunked(n, ex, 256, func(i int) {
		u := int32(i)
		owner[u] = unset
		if match[u] != unset {
			return
		}
		adj, _ := g.Neighbors(u)
		best := unset
		for _, v := range adj {
			if unmatchedDeg[v] >= 2 && (best == unset || pos[v] < pos[best]) {
				best = v
			}
		}
		owner[u] = best
	})
	// Each center pairs its owned candidates two at a time. A center may
	// itself be a candidate owned elsewhere; it only ever writes its owned
	// cells (never its own), so the writes stay exclusive, and a pair of
	// owned candidates always shares the center as a common neighbor.
	par.ForEachChunked(n, ex, 128, func(i int) {
		v := int32(i)
		if unmatchedDeg[v] < 2 {
			return
		}
		adj, _ := g.Neighbors(v)
		prev := unset
		for _, u := range adj {
			if owner[u] != v {
				continue
			}
			if prev == unset {
				prev = u
				continue
			}
			match[prev] = u
			match[u] = prev
			prev = unset
		}
	})
}
