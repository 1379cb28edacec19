package coarsen

import (
	"mlcg/internal/graph"
	"mlcg/internal/par"
)

// GOSH is the coarsening scheme of the GOSH embedding system (Akyildiz,
// Aljundi, Kaya; tech-report Algorithms 7 and 15): an MIS-flavored
// aggregation where vertices are visited in decreasing-degree order, an
// unmapped vertex becomes a cluster center, and its unmapped neighbors
// join it — except that two high-degree vertices are never contracted
// together, which keeps hubs from collapsing into one mega-aggregate.
// Edge weights are ignored by design (the paper calls this out as a
// drawback that GOSHHEC fixes).
//
// The historical implementation raced CAS claims along the degree order,
// so cluster membership depended on thread interleaving. This version
// resolves the same visit order through race-free phases: centers are the
// vertices no claim-eligible neighbor outranks, everyone else joins their
// best-ranked center neighbor, and two snapshot rounds let stragglers
// adopt an already-assigned neighbor's cluster. Membership and labels are
// identical for every worker count.
type GOSH struct {
	// HubDegreeFactor scales the high-degree threshold δ =
	// max(4, factor·avgdeg); two vertices with degree > δ are not merged.
	// Zero means the default factor of 1.
	HubDegreeFactor float64
}

// Name implements Mapper.
func (GOSH) Name() string { return "gosh" }

// goshThreshold computes the hub-degree cutoff δ.
func goshThreshold(g *graph.Graph, factor float64) int64 {
	if factor <= 0 {
		factor = 1
	}
	d := int64(factor * g.AvgDegree())
	if d < 4 {
		d = 4
	}
	return d
}

// Map implements Mapper.
func (gm GOSH) Map(g *graph.Graph, seed uint64, ex par.Exec) (*Mapping, error) {
	n := g.N()
	delta := goshThreshold(g, gm.HubDegreeFactor)
	hub := func(v int32) bool { return g.Degree(v) > delta }

	// Order vertices by decreasing degree; ties broken pseudo-randomly by
	// the seed, then by id (radix sort is stable), so ranks are unique.
	// rank[u] is u's visit position — it plays the role pos[] plays for
	// the permutation-driven mappers, including in the canonical relabel.
	rx := ex.Kernel("gosh:rank")
	keys := make([]uint64, n)
	vals := make([]uint64, n)
	par.ForEach(n, rx, func(i int) {
		d := uint64(g.Degree(int32(i)))
		// Sort ascending on (maxdeg-d, noise) == descending on degree.
		keys[i] = (^d)<<20 | (par.Mix64(seed^uint64(i)) & 0xfffff)
		vals[i] = uint64(i)
	})
	par.RadixSortPairs(keys, vals, rx)
	rank := make([]int32, n)
	par.ForEach(n, rx, func(i int) {
		rank[vals[i]] = int32(i)
	})
	rx.Span.End()
	ax := ex.Kernel("gosh:aggregate")

	// Phase 1: centers. u becomes a center when no neighbor that could
	// claim it (hub–hub edges never claim) outranks it — the vertices the
	// sequential degree-order sweep would visit unclaimed. Read-only on
	// shared state, each vertex writes its own entry.
	m := make([]int32, n)
	par.Fill(m, unset, ax)
	par.ForEachChunked(n, ax, 256, func(i int) {
		u := int32(i)
		uHub := hub(u)
		adj, _ := g.Neighbors(u)
		for _, v := range adj {
			if uHub && hub(v) {
				continue // never contract two hubs
			}
			if rank[v] < rank[u] {
				return
			}
		}
		m[u] = u
	})

	// Phase 2: everyone else joins their best-ranked (earliest-visited)
	// center neighbor. Written into a fresh array so the center test reads
	// only the frozen phase-1 output.
	m2 := make([]int32, n)
	par.ForEachChunked(n, ax, 256, func(i int) {
		u := int32(i)
		if m[u] != unset {
			m2[u] = m[u]
			return
		}
		uHub := hub(u)
		adj, _ := g.Neighbors(u)
		best := unset
		for _, v := range adj {
			if m[v] != v {
				continue // not a center
			}
			if uHub && hub(v) {
				continue
			}
			if best == unset || rank[v] < rank[best] {
				best = v
			}
		}
		m2[u] = best // may remain unset
	})
	m = m2

	// Phase 3: two snapshot rounds let stragglers (vertices whose eligible
	// neighbors were all claimed, which the sequential sweep would have
	// visited and centered or chained) adopt the cluster of their
	// best-ranked assigned neighbor, unless that would merge two hubs.
	for round := 0; round < 2; round++ {
		snapshot := make([]int32, n)
		par.Copy(snapshot, m, ax)
		par.ForEachChunked(n, ax, 256, func(i int) {
			u := int32(i)
			if snapshot[u] != unset {
				return
			}
			uHub := hub(u)
			adj, _ := g.Neighbors(u)
			best := unset
			for _, v := range adj {
				if snapshot[v] == unset {
					continue
				}
				if uHub && hub(snapshot[v]) {
					continue // cluster root is a hub: keep hubs apart
				}
				if best == unset || rank[v] < rank[best] {
					best = v
				}
			}
			if best != unset {
				m[u] = snapshot[best]
			}
		})
	}
	par.ForEach(n, ax, func(i int) {
		if m[i] == unset {
			m[i] = int32(i)
		}
	})
	ax.Span.End()
	nc := canonicalize(m, rank, ex)
	return &Mapping{M: m, NC: nc, Passes: 1, PassMapped: []int64{int64(n)}}, nil
}

// GOSHHEC is the paper's new coarsening approach (tech-report
// Algorithm 16) combining ideas from the HEC and GOSH parallelizations: a
// weight-aware aggregation with less indirection and less fine-grained
// synchronization than GOSH, which skips high-degree vertex adjacencies in
// several loops. This reconstruction keeps GOSH's degree-first aggregation
// but makes it weight-aware and nearly synchronization-free:
//
//  1. Centers are the local maxima of a (degree, random) priority — a
//     single race-free read-only pass, no CAS claiming as in GOSH.
//  2. Every other vertex joins its *heaviest* center neighbor (the HEC
//     idea; GOSH ignores weights), skipping hub→hub merges.
//  3. Two cleanup rounds let stragglers adopt a neighbor's aggregate via
//     their heaviest assigned neighbor; leftovers become singletons.
//
// Hub adjacency lists are scanned only in the one priority pass (their
// neighbors read them; they never scan in phases 2-3), realizing the
// "skips high-degree vertex adjacencies in several loops" property.
type GOSHHEC struct {
	HubDegreeFactor float64 // as in GOSH; zero means default
}

// Name implements Mapper.
func (GOSHHEC) Name() string { return "goshhec" }

// Map implements Mapper.
func (gm GOSHHEC) Map(g *graph.Graph, seed uint64, ex par.Exec) (*Mapping, error) {
	n := g.N()
	delta := goshThreshold(g, gm.HubDegreeFactor)
	perm := par.RandPerm(n, seed, ex)
	pos := par.InversePerm(perm, ex)

	// Priority: degree first (GOSH's ordering), random tie-break, vertex
	// id as the final strict tie-break so priorities are unique.
	higher := func(a, b int32) bool {
		da, db := g.Degree(a), g.Degree(b)
		if da != db {
			return da > db
		}
		if pos[a] != pos[b] {
			return pos[a] < pos[b]
		}
		return a < b
	}

	// Phase 1: centers = local priority maxima (independent set).
	ax := ex.Kernel("goshhec:aggregate")
	m := make([]int32, n)
	par.Fill(m, unset, ax)
	par.ForEachChunked(n, ax, 256, func(i int) {
		u := int32(i)
		adj, _ := g.Neighbors(u)
		for _, v := range adj {
			if higher(v, u) {
				return
			}
		}
		m[u] = u
	})

	// Phase 2: join the heaviest center neighbor; hubs never merge into
	// hub centers. Written into a fresh array so the center test reads
	// only the frozen phase-1 output (reading m while peers assign their
	// own entries would race).
	m2 := make([]int32, n)
	par.ForEachChunked(n, ax, 256, func(i int) {
		u := int32(i)
		if m[u] != unset {
			m2[u] = m[u]
			return
		}
		uHub := g.Degree(u) > delta
		adj, wgt := g.Neighbors(u)
		best := unset
		var bw int64 = -1
		for k, v := range adj {
			if m[v] != v || v == u {
				continue // not a center
			}
			if uHub && g.Degree(v) > delta {
				continue // never contract two hubs
			}
			w := wgt[k]
			if w > bw || (w == bw && (best == unset || pos[v] < pos[best])) {
				best, bw = v, w
			}
		}
		m2[u] = best // may remain unset
	})
	m = m2

	// Phase 3: stragglers adopt their heaviest assigned neighbor's
	// aggregate. Two rounds reach everything within distance two of a
	// center; the rest become singletons. Each round reads the previous
	// round's snapshot to stay race-free and keep members pointing
	// directly at roots.
	for round := 0; round < 2; round++ {
		snapshot := make([]int32, n)
		par.Copy(snapshot, m, ax)
		par.ForEachChunked(n, ax, 256, func(i int) {
			u := int32(i)
			if snapshot[u] != unset {
				return
			}
			adj, wgt := g.Neighbors(u)
			best := unset
			var bw int64 = -1
			for k, v := range adj {
				if snapshot[v] == unset {
					continue
				}
				w := wgt[k]
				if w > bw || (w == bw && (best == unset || pos[v] < pos[best])) {
					best, bw = v, w
				}
			}
			if best != unset {
				m[u] = snapshot[best]
			}
		})
	}
	par.ForEach(n, ax, func(i int) {
		if m[i] == unset {
			m[i] = int32(i)
		}
	})
	ax.Span.End()
	nc := canonicalize(m, pos, ex)
	return &Mapping{M: m, NC: nc, Passes: 1, PassMapped: []int64{int64(n)}}, nil
}
