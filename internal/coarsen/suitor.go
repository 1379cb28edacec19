package coarsen

import (
	"runtime"
	"sync/atomic"

	"mlcg/internal/graph"
	"mlcg/internal/obs"
	"mlcg/internal/par"
)

// Suitor implements coarsening by the Suitor algorithm of Manne and
// Halappanavar ("New effective multithreaded matching algorithms", IPDPS
// 2014), the weighted-matching alternative the paper names as future work
// ("we will compare to approximation algorithms for weighted maximal
// matching such as Suitor in future work"). Suitor computes the same
// 1/2-approximate maximum weight matching as greedy-by-weight, but by
// local proposals: every vertex proposes to its best neighbor whose
// current suitor is weaker, dislodged proposers re-propose, and mutual
// proposals form the matching.
type Suitor struct{}

// Name implements Mapper.
func (Suitor) Name() string { return "suitor" }

// Map implements Mapper.
func (Suitor) Map(g *graph.Graph, seed uint64, p int) (*Mapping, error) {
	n := g.N()
	perm := par.RandPerm(n, seed, p)
	pos := par.InversePerm(perm, p)

	// suitor[v] is the current proposer to v (unset = none); ws[v] is the
	// weight of that proposal. beats reports whether a proposal (u, w)
	// dislodges v's current suitor, with the positional tie-break keeping
	// the outcome deterministic for p == 1.
	suitor := make([]int32, n)
	ws := make([]int64, n)
	par.Fill(suitor, unset, p)

	beats := func(w int64, u, v int32) bool {
		if w != ws[v] {
			return w > ws[v]
		}
		cur := suitor[v]
		return cur == unset || pos[u] < pos[cur]
	}

	if par.Workers(p, n) == 1 {
		// Sequential suitor with an explicit work stack of dislodged
		// proposers.
		stack := make([]int32, 0, 64)
		for _, start := range perm {
			u := start
			for u != unset {
				adj, wgt := g.Neighbors(u)
				best := unset
				var bw int64 = -1
				for k, v := range adj {
					w := wgt[k]
					if (w > bw || (w == bw && (best == unset || pos[v] < pos[best]))) && beats(w, u, v) {
						best, bw = v, w
					}
				}
				if best == unset {
					u = unset
					continue
				}
				dislodged := suitor[best]
				suitor[best] = u
				ws[best] = bw
				if dislodged != unset {
					stack = append(stack, dislodged)
				}
				if len(stack) > 0 {
					u = stack[len(stack)-1]
					stack = stack[:len(stack)-1]
				} else {
					u = unset
				}
			}
		}
	} else {
		parallelSuitor(g, suitor, ws, pos, p)
	}

	// Mutual suitors are matched; everything else is a singleton. The
	// matching itself is schedule-independent — proposals resolve to the
	// unique greedy-by-(weight, pos) matching regardless of interleaving —
	// so canonical relabeling pins the labels too.
	m := make([]int32, n)
	for u := int32(0); int(u) < n; u++ {
		if v := suitor[u]; v != unset && suitor[v] == u && v < u {
			m[u] = v // pair root is the lower id
		} else {
			m[u] = u
		}
	}
	nc := canonicalize(m, pos, p)
	return &Mapping{M: m, NC: nc, Passes: 1, PassMapped: []int64{int64(n)}}, nil
}

// parallelSuitor runs the lock-based variant: each proposal
// inspect-and-update of (suitor[v], ws[v]) happens under a per-vertex spin
// lock, exactly as in the multithreaded algorithm of the original paper.
func parallelSuitor(g *graph.Graph, suitor []int32, ws []int64, pos []int32, p int) {
	span := obs.StartKernel("suitor:propose")
	defer span.Done()
	n := g.N()
	locks := make([]int32, n)
	// Spin iterations batch into a per-chunk counter (suitor_spins) flushed
	// once per chunk; the common uncontended acquire adds one register add.
	par.ForChunked(n, p, 256, func(_, lo, hi int) {
		var spins int64
		lock := func(v int32) {
			for !atomic.CompareAndSwapInt32(&locks[v], 0, 1) {
				spins++
				// Yield so the lock holder can run: with fewer OS threads
				// than workers (or under the race detector) a pure spin
				// starves the holder and livelocks the pass.
				runtime.Gosched()
			}
		}
		unlock := func(v int32) { atomic.StoreInt32(&locks[v], 0) }
		for i := lo; i < hi; i++ {
			suitorPropose(g, suitor, ws, pos, int32(i), lock, unlock)
		}
		span.Add(obs.CtrSuitorSpin, spins)
	})
}

// suitorPropose runs one vertex's proposal chain (including re-proposals of
// dislodged suitors) under the caller's per-vertex lock functions.
func suitorPropose(g *graph.Graph, suitor []int32, ws []int64, pos []int32, u int32, lock, unlock func(v int32)) {
	for u != unset {
		adj, wgt := g.Neighbors(u)
		best := unset
		var bw int64 = -1
		for k, v := range adj {
			w := wgt[k]
			// Unlocked reads are a heuristic filter; the decision is
			// re-checked under the lock. The filter must use the same
			// tie-break as the lock-side test (positional comparison
			// of proposers), otherwise equal-weight proposals that
			// would win on the tie-break get dropped and mutual pairs
			// never form.
			if w > bw || (w == bw && (best == unset || pos[v] < pos[best])) {
				cw := atomic.LoadInt64(&ws[v])
				cur := atomic.LoadInt32(&suitor[v])
				if w > cw || (w == cw && (cur == unset || pos[u] < pos[cur])) {
					best, bw = v, w
				}
			}
		}
		if best == unset {
			return
		}
		lock(best)
		cur := suitor[best]
		ok := bw > ws[best] || (bw == ws[best] && (cur == unset || pos[u] < pos[cur]))
		var dislodged int32 = unset
		if ok {
			dislodged = cur
			// Atomic stores so the unlocked filter reads above never
			// race with in-progress updates; ordering still comes from
			// the lock.
			atomic.StoreInt32(&suitor[best], u)
			atomic.StoreInt64(&ws[best], bw)
		}
		unlock(best)
		if !ok {
			// Retry: this proposal lost; look for the next-best
			// target in the following loop iteration by continuing
			// with the same u (the filter will now skip best).
			continue
		}
		u = dislodged
	}
}
