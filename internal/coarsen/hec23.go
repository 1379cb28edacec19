package coarsen

import (
	"sync/atomic"

	"mlcg/internal/graph"
	"mlcg/internal/par"
)

// HEC3 is the alternate parallelization of HEC's second phase
// (Algorithm 5). The heavy-neighbor array H induces a directed
// pseudoforest (every vertex has out-degree one); coarse vertices are the
// targets of heavy edges. The phases: collapse mutual (2-cycle) heavy
// pairs, mark every remaining heavy-edge target as a coarse root,
// point every unmapped vertex at its target's root, then pointer-jump to a
// fixpoint. Requires very little fine-grained synchronization — only the
// root-marking CAS — at the cost of creating more coarse vertices than
// Algorithm 4 (every target becomes a root, so the coarsening is less
// aggressive and more levels are needed; the paper measures 1.26× more
// levels on average).
type HEC3 struct{}

// Name implements Mapper.
func (HEC3) Name() string { return "hec3" }

// Map implements Mapper.
func (HEC3) Map(g *graph.Graph, seed uint64, ex par.Exec) (*Mapping, error) {
	n := g.N()
	perm := par.RandPerm(n, seed, ex)
	pos := par.InversePerm(perm, ex)
	hv := heavyNeighbors(g, pos, ex)
	m := hec3FromHeavy(g, hv, pos, ex, nil)
	nc := canonicalize(m, pos, ex)
	return &Mapping{M: m, NC: nc, Passes: 1, PassMapped: []int64{int64(n)}}, nil
}

// hec3FromHeavy runs Algorithm 5 given the heavy-neighbor array. skip, if
// non-nil, marks vertices excluded from aggregation (used by GOSHHEC for
// high-degree vertices); excluded vertices become singleton roots unless
// some other vertex targets them. The returned slice maps each vertex to
// its aggregate's root vertex id (m[r] == r for roots).
func hec3FromHeavy(g *graph.Graph, hv, pos []int32, ex par.Exec, skip []bool) []int32 {
	ex = ex.Kernel("hec3:pseudoforest")
	defer ex.Span.End()
	n := g.N()
	m := make([]int32, n)
	par.Fill(m, unset, ex)

	// Phase 1 (lines 5-8): collapse mutual heavy pairs. The lower-position
	// endpoint becomes the root of the pair.
	par.ForEach(n, ex, func(i int) {
		u := int32(i)
		if skip != nil && skip[u] {
			return
		}
		v := hv[u]
		if v == u || (skip != nil && skip[v]) {
			return
		}
		if hv[v] == u {
			r := u
			if pos[v] < pos[u] {
				r = v
			}
			m[u] = r
		}
	})

	// Phase 2 (lines 9-12): mark heavy-edge targets as roots. The
	// historical version CAS-marked targets but skipped a proposal when the
	// proposer had itself been marked a root earlier in the same loop, so
	// the root set depended on thread interleaving. Deciding every proposal
	// against the frozen phase-1 state (a flag array, as in HEC2) makes the
	// root set a pure function of (graph, seed). The flag store is atomic
	// only to license the concurrent same-value writes.
	x := make([]int32, n)
	par.ForEach(n, ex, func(i int) {
		u := int32(i)
		if skip != nil && skip[u] {
			return
		}
		if m[u] != unset {
			return // collapsed mutual pair
		}
		v := hv[u]
		if v == u || (skip != nil && skip[v]) {
			return
		}
		atomic.StoreInt32(&x[v], 1)
	})
	par.ForEach(n, ex, func(i int) {
		u := int32(i)
		if m[u] == unset && x[u] == 1 {
			m[u] = u
		}
	})

	// Phase 3 (lines 13-16): unmapped vertices adopt their target's id.
	// Every proposed target was finalized above (pair member or fresh
	// root), so this loop reads only finished values. Vertices excluded
	// from aggregation become singleton roots.
	par.ForEach(n, ex, func(i int) {
		u := int32(i)
		if m[u] != unset {
			return
		}
		v := hv[u]
		if v == u || (skip != nil && (skip[u] || skip[v])) {
			m[u] = u
			return
		}
		m[u] = m[v]
	})

	// Phase 4 (lines 17-21): pointer jumping to the aggregate root.
	par.ForEach(n, ex, func(i int) {
		u := int32(i)
		r := atomic.LoadInt32(&m[u])
		for {
			next := atomic.LoadInt32(&m[r])
			if next == r {
				break
			}
			r = atomic.LoadInt32(&m[next])
		}
		atomic.StoreInt32(&m[u], r)
	})
	return m
}

// HEC2 is the intermediate parallelization between Algorithms 4 and 5
// (tech-report Algorithm 9, reconstructed): the decoupled root-marking of
// HEC3 driven through two auxiliary arrays that make coarse-id assignment
// race-free, but without HEC3's 2-cycle collapse loop. Mutual heavy pairs
// therefore both become roots instead of merging, which is why the paper
// measures HEC2 needing 1.56× more coarsening levels than HEC.
type HEC2 struct{}

// Name implements Mapper.
func (HEC2) Name() string { return "hec2" }

// Map implements Mapper.
func (HEC2) Map(g *graph.Graph, seed uint64, ex par.Exec) (*Mapping, error) {
	n := g.N()
	perm := par.RandPerm(n, seed, ex)
	pos := par.InversePerm(perm, ex)
	hv := heavyNeighbors(g, pos, ex)

	// X[v] = 1 when some vertex proposes to v (v must become a root);
	// Y assigns root flags without racing on M.
	rx := ex.Kernel("hec2:roots")
	x := make([]int32, n)
	par.ForEach(n, rx, func(i int) {
		u := int32(i)
		v := hv[u]
		if v != u {
			atomic.StoreInt32(&x[v], 1)
		}
	})
	m := make([]int32, n)
	par.ForEach(n, rx, func(i int) {
		u := int32(i)
		if x[u] == 1 || hv[u] == u {
			m[u] = u // root: targeted by someone, or isolated
		} else {
			m[u] = unset
		}
	})
	par.ForEach(n, rx, func(i int) {
		u := int32(i)
		if m[u] == unset {
			m[u] = hv[u] // target is a root by construction
		}
	})
	rx.Span.End()
	nc := canonicalize(m, pos, ex)
	return &Mapping{M: m, NC: nc, Passes: 1, PassMapped: []int64{int64(n)}}, nil
}
