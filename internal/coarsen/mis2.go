package coarsen

import (
	"mlcg/internal/graph"
	"mlcg/internal/par"
)

// MIS2 is the distance-2 maximal independent set coarsening of Bell,
// Dalton, and Olson (tech-report Algorithm 14): aggregate roots form an
// MIS of the square graph (no two roots within distance two), found by
// iterated random-priority elimination; every other vertex joins a root
// within two hops. Coarsening is aggressive (aggregates are distance-2
// balls), which the paper observes can make the coarsest graphs less
// useful (e.g. mycielskian17).
type MIS2 struct{}

// Name implements Mapper.
func (MIS2) Name() string { return "mis2" }

const (
	misUndecided int32 = 0
	misIn        int32 = 1
	misOut       int32 = 2
)

// Map implements Mapper.
func (MIS2) Map(g *graph.Graph, seed uint64, ex par.Exec) (*Mapping, error) {
	n := g.N()
	sel := ex.Kernel("mis2:select")
	state := mis2States(g, seed, sel)
	sel.Span.End()
	ax := ex.Kernel("mis2:aggregate")
	key := make([]uint64, n)
	par.ForEach(n, ax, func(i int) {
		key[i] = par.Mix64(seed ^ uint64(i)*0x9e3779b97f4a7c15)
	})
	higher := func(a, b int32) bool {
		return key[a] > key[b] || (key[a] == key[b] && a > b)
	}

	// Aggregation: roots are MIS vertices; everyone else joins a root at
	// distance one, then the rest join any aggregated neighbor (distance
	// two). Maximality guarantees coverage; a final sweep turns anything
	// unreached (possible only on degenerate inputs) into singletons.
	m := make([]int32, n)
	par.Fill(m, unset, ax)
	par.ForEach(n, ax, func(i int) {
		if state[i] == misIn {
			m[i] = int32(i)
		}
	})
	for round := 0; round < 2; round++ {
		next := make([]int32, n)
		par.Copy(next, m, ax)
		par.ForEachChunked(n, ax, 256, func(i int) {
			v := int32(i)
			if m[v] != unset {
				return
			}
			adj, _ := g.Neighbors(v)
			best := unset
			for _, u := range adj {
				if m[u] != unset {
					r := m[u]
					if best == unset || higher(r, best) {
						best = r
					}
				}
			}
			if best != unset {
				next[v] = best
			}
		})
		m = next
	}
	par.ForEach(n, ax, func(i int) {
		if m[i] == unset {
			m[i] = int32(i)
		}
	})
	ax.Span.End()
	// MIS2 has no random visit permutation, so the canonical order is the
	// identity: aggregates are numbered by their minimum member vertex id.
	nc := canonicalize(m, nil, ex)
	return &Mapping{M: m, NC: nc, Passes: 1, PassMapped: []int64{int64(n)}}, nil
}

// mis2States runs the iterated random-priority elimination and returns the
// per-vertex state array (misIn marks the distance-2 MIS).
func mis2States(g *graph.Graph, seed uint64, ex par.Exec) []int32 {
	n := g.N()
	state := make([]int32, n)
	// Random priorities; ties broken by id via the tuple (key, id).
	key := make([]uint64, n)
	par.ForEach(n, ex, func(i int) {
		key[i] = par.Mix64(seed ^ uint64(i)*0x9e3779b97f4a7c15)
	})
	higher := func(a, b int32) bool { // does a beat b?
		return key[a] > key[b] || (key[a] == key[b] && a > b)
	}

	t1 := make([]int32, n) // best undecided vertex within distance 1
	t2 := make([]int32, n) // best undecided vertex within distance 2
	for {
		undecided := par.CountInt64(n, ex, func(i int) bool { return state[i] == misUndecided })
		if undecided == 0 {
			break
		}
		// t1[v]: the strongest undecided candidate among v and neighbors.
		par.ForEachChunked(n, ex, 256, func(i int) {
			v := int32(i)
			best := unset
			if state[v] == misUndecided {
				best = v
			}
			adj, _ := g.Neighbors(v)
			for _, u := range adj {
				if state[u] == misUndecided && (best == unset || higher(u, best)) {
					best = u
				}
			}
			t1[v] = best
		})
		// t2[v]: strongest candidate within distance 2 (max of t1 over the
		// closed neighborhood).
		par.ForEachChunked(n, ex, 256, func(i int) {
			v := int32(i)
			best := t1[v]
			adj, _ := g.Neighbors(v)
			for _, u := range adj {
				if t1[u] != unset && (best == unset || higher(t1[u], best)) {
					best = t1[u]
				}
			}
			t2[v] = best
		})
		// A vertex that dominates its own distance-2 neighborhood joins
		// the MIS.
		par.ForEach(n, ex, func(i int) {
			v := int32(i)
			if state[v] == misUndecided && t2[v] == v {
				state[v] = misIn
			}
		})
		// Eliminate everything within distance 2 of a new MIS vertex.
		near := make([]bool, n)
		par.ForEachChunked(n, ex, 256, func(i int) {
			v := int32(i)
			if state[v] == misIn {
				near[v] = true
				return
			}
			adj, _ := g.Neighbors(v)
			for _, u := range adj {
				if state[u] == misIn {
					near[v] = true
					return
				}
			}
		})
		par.ForEachChunked(n, ex, 256, func(i int) {
			v := int32(i)
			if state[v] != misUndecided {
				return
			}
			if near[v] {
				state[v] = misOut
				return
			}
			adj, _ := g.Neighbors(v)
			for _, u := range adj {
				if near[u] {
					state[v] = misOut
					return
				}
			}
		})
	}
	return state
}
