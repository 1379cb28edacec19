package coarsen

import (
	"mlcg/internal/graph"
	"mlcg/internal/obs"
	"mlcg/internal/par"
)

// HECSeq is the sequential Heavy Edge Coarsening algorithm (Algorithm 3):
// vertices are visited in random order; an unmapped vertex joins the
// aggregate of its heaviest neighbor, creating the aggregate if the
// neighbor is still unmapped. The coarsening ratio can exceed two because
// many vertices may join the same aggregate.
type HECSeq struct{}

// Name implements Mapper.
func (HECSeq) Name() string { return "hecseq" }

// Map implements Mapper.
func (HECSeq) Map(g *graph.Graph, seed uint64, p int) (*Mapping, error) {
	n := g.N()
	perm := par.RandPerm(n, seed, p)
	pos := par.InversePerm(perm, p)
	m := make([]int32, n)
	for i := range m {
		m[i] = unset
	}
	// Root-vertex labels (m[u] = the vertex that anchored u's aggregate)
	// instead of a running counter, so the canonical relabeling below can
	// assign the same ids regardless of visit order.
	for _, u := range perm {
		if m[u] != unset {
			continue
		}
		adj, wgt := g.Neighbors(u)
		if len(adj) == 0 {
			m[u] = u
			continue
		}
		x := adj[0]
		bw := wgt[0]
		for k := 1; k < len(adj); k++ {
			if wgt[k] > bw {
				x, bw = adj[k], wgt[k]
			}
		}
		if m[x] == unset {
			m[x] = x
		}
		m[u] = m[x]
	}
	nc := canonicalize(m, pos, p)
	return &Mapping{M: m, NC: nc, Passes: 1, PassMapped: []int64{int64(n)}}, nil
}

// HEC is the parallel heavy edge coarsening of Algorithm 4, made
// schedule-independent: instead of racing compare-and-swap claims (whose
// winners depend on thread interleaving), each pass runs a deterministic
// reservation round in the style of deterministic parallel reservations
// (Blelloch et al.). Every pending vertex u inspects its heavy edge
// <u, H[u]> and classifies the operation:
//
//   - singleton — u is isolated; always commits.
//   - inherit   — H[u] already carries an aggregate; u wants to join it.
//   - pair      — H[u] is unmapped; u wants to found the aggregate {u, H[u]}.
//
// Each inherit/pair operation reserves the cells it writes (its own, plus
// the partner's for pairs) with an atomic-min keyed by pos[u], and commits
// only if it holds the minimum on every reserved cell. Min is
// order-insensitive, so the set of committed operations — and therefore the
// aggregate membership — is identical for every worker count and
// interleaving. The globally minimum-position pending operation always
// holds all its cells, so every round makes progress and no livelock
// (Section III.A.1's mutual-pair deadlock) can occur. A catch-up wave then
// lets pair operations whose partner was claimed by a stronger rival adopt
// the partner's fresh aggregate within the same pass (writing only their
// own cell — race-free), which preserves the paper's property that the
// vast majority of vertices map within two passes.
type HEC struct {
	// MaxPasses bounds the reservation rounds; once exceeded, the
	// remaining vertices are finished sequentially in permutation order
	// (exact Algorithm 3 semantics on the residue). Zero means the default
	// of 64. In practice the paper observes >99% of vertices mapping
	// within two passes.
	MaxPasses int
}

// Name implements Mapper.
func (HEC) Name() string { return "hec" }

// Operation kinds for the reservation rounds.
const (
	hecActSingle = int8(iota)
	hecActPair
	hecActInherit
)

// Map implements Mapper.
func (h HEC) Map(g *graph.Graph, seed uint64, p int) (*Mapping, error) {
	n := g.N()
	maxPasses := h.MaxPasses
	if maxPasses <= 0 {
		maxPasses = 64
	}
	setup := obs.StartKernel("hec:setup")
	perm := par.RandPerm(n, seed, p)
	pos := par.InversePerm(perm, p)
	hv := heavyNeighbors(g, pos, p)
	setup.Done()

	m := make([]int32, n)
	par.Fill(m, unset, p)
	// res[x] = pos of the strongest (minimum-position) pending operation
	// that reserved cell x this round; act[u] = u's classified operation.
	// Only cells of queued vertices are read, so neither array needs a
	// full reset between passes.
	res := make([]int32, n)
	act := make([]int8, n)
	inf := int32(n)

	queue := perm
	var passMapped []int64
	pass := 0
	for len(queue) > 0 && pass < maxPasses {
		pass++
		span := obs.StartKernel("hec:pass")
		// Reset reservations. Every reservable cell belongs to a queued
		// vertex (pair partners are unmapped, hence queued), so resetting
		// res[u] for u in the queue covers them all with exclusive writes.
		par.ForEach(len(queue), p, func(i int) {
			res[queue[i]] = inf
		})
		// Classify and reserve. m is frozen during this phase, so the
		// inherit-vs-pair decision reads stable values. Reservation issue and
		// CAS-retry counts are batched per chunk and flushed to the pass span
		// in one call, so the uninstrumented cost is a register add.
		par.ForChunked(len(queue), p, 512, func(_, lo, hi int) {
			var reserves, retries int64
			for i := lo; i < hi; i++ {
				u := queue[i]
				v := hv[u]
				if v == u {
					act[u] = hecActSingle
					continue
				}
				if m[v] != unset {
					act[u] = hecActInherit
					retries += par.AtomicMinInt32Retries(&res[u], pos[u])
					reserves++
					continue
				}
				act[u] = hecActPair
				retries += par.AtomicMinInt32Retries(&res[u], pos[u])
				retries += par.AtomicMinInt32Retries(&res[v], pos[u])
				reserves += 2
			}
			span.Add(obs.CtrReserve, reserves)
			span.Add(obs.CtrCASRetry, retries)
		})
		// Commit. An operation writes only cells it holds the minimum
		// reservation on, so every write has a unique writer; the only m
		// reads are of aggregates mapped in earlier passes (stable).
		par.ForChunked(len(queue), p, 512, func(_, lo, hi int) {
			var commits int64
			for i := lo; i < hi; i++ {
				u := queue[i]
				switch act[u] {
				case hecActSingle:
					m[u] = u
					commits++
				case hecActPair:
					v := hv[u]
					if res[u] != pos[u] || res[v] != pos[u] {
						continue
					}
					m[v] = v
					m[u] = v
					commits++
				case hecActInherit:
					if res[u] != pos[u] {
						continue
					}
					m[u] = m[hv[u]]
					commits++
				}
			}
			span.Add(obs.CtrCommit, commits)
		})
		// Catch-up wave: a pending vertex whose partner was founded or
		// claimed this round adopts the partner's aggregate now instead of
		// waiting a pass. Reads are of post-commit values (stable — nothing
		// writes m between the waves) and each vertex writes only its own
		// cell, so the wave is race-free and its outcome
		// schedule-independent. Two sub-phases keep adoption values frozen:
		// first gather, then write.
		par.ForEach(len(queue), p, func(i int) {
			u := queue[i]
			if m[u] != unset || act[u] == hecActSingle {
				res[u] = inf // reuse res as the adoption buffer flag
				return
			}
			if t := m[hv[u]]; t != unset {
				res[u] = t
			} else {
				res[u] = inf
			}
		})
		par.ForEach(len(queue), p, func(i int) {
			u := queue[i]
			if m[u] == unset && res[u] != inf {
				m[u] = res[u]
			}
		})
		next := par.Pack(len(queue), p, func(i int) bool {
			return m[queue[i]] == unset
		})
		remapped := int64(len(queue) - len(next))
		passMapped = append(passMapped, remapped)
		q2 := make([]int32, len(next))
		par.ForEach(len(next), p, func(i int) {
			q2[i] = queue[next[i]]
		})
		queue = q2
		span.Done()
		if remapped == 0 {
			// Unreachable given the progress guarantee, but kept as a
			// backstop: fall through to the sequential residue.
			break
		}
	}
	if len(queue) > 0 {
		// Sequential residue in permutation order (the queue preserves
		// it), exact Algorithm 3 semantics with root labels.
		span := obs.StartKernel("hec:residue")
		var cleaned int64
		for _, u := range queue {
			if m[u] != unset {
				continue
			}
			v := hv[u]
			if v == u {
				m[u] = u
				cleaned++
				continue
			}
			if m[v] == unset {
				m[v] = v
				m[u] = v
				cleaned += 2
				continue
			}
			m[u] = m[v]
			cleaned++
		}
		passMapped = append(passMapped, cleaned)
		pass++
		span.Done()
	}
	nc := canonicalize(m, pos, p)
	return &Mapping{M: m, NC: nc, Passes: pass, PassMapped: passMapped}, nil
}
