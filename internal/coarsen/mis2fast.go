package coarsen

import (
	"sync/atomic"

	"mlcg/internal/graph"
	"mlcg/internal/obs"
	"mlcg/internal/par"
)

// MIS2Fast is the worklist-driven distance-2 MIS coarsening of Kelley and
// Rajamanickam (arXiv:2204.02934): the same iterated random-priority
// elimination as MIS2 — identical tie-breaking hashes, identical fixpoint —
// but after the first full sweep each round only revisits vertices whose
// status can still change. Per-round frontiers are built into per-worker
// buffers and merged with an exclusive scan (no atomics on the merge); the
// only atomics are monotone 0→1 claim marks that deduplicate candidate
// lists. Three structural facts keep the per-round work far below MIS2's
// five O(n + m) sweeps:
//
//  1. only a vertex v with t1[v] == v (it beats its whole undecided closed
//     neighborhood) can pass MIS2's t2[v] == v test, so the decide frontier
//     holds local maxima only — the O(m) t2 sweep becomes a scan over a few
//     candidates with an early exit;
//  2. distance-2 independence means a non-root has at most one adjacent
//     root, so the distance-1 aggregation scatters from the root list with
//     plain uncontended stores in O(Σdeg(roots)) instead of scanning every
//     edge; and
//  3. elimination walks only the distance-2 ball of newly selected members
//     (monotone near marks), not the whole graph.
//
// Because every per-vertex write is a pure function of the previous round's
// state, frontier order never influences values, so M and NC are
// byte-identical to MIS2's at every worker count (see DESIGN.md).
type MIS2Fast struct{}

// Name implements Mapper.
func (MIS2Fast) Name() string { return "mis2fast" }

// Map implements Mapper.
func (m MIS2Fast) Map(g *graph.Graph, seed uint64, p int) (*Mapping, error) {
	return m.MapWith(NewWorkspace(), g, seed, p)
}

// MapWith is Map with explicit scratch; ws must be non-nil. Coarsener.Run
// uses it to reuse one arena's selection/frontier buffers across all levels
// of a hierarchy.
func (MIS2Fast) MapWith(ws *Workspace, g *graph.Graph, seed uint64, p int) (*Mapping, error) {
	n := g.N()
	p = par.Workers(p, n)
	s := ws.mis2Scratch(n, p)

	// Random priorities; ties broken by id via the tuple (key, id). The
	// hash matches MIS2 exactly so both mappers converge to the same MIS.
	// (Mix64 of distinct inputs never collides — it is a bijection — so the
	// id tie-break is defensive, not load-bearing.)
	key := s.key
	par.ForEach(n, p, func(i int) {
		key[i] = par.Mix64(seed ^ uint64(i)*0x9e3779b97f4a7c15)
	})

	span := obs.StartKernel("mis2fast:select")
	state := mis2FastStates(g, s, p)
	span.Done()

	span = obs.StartKernel("mis2fast:aggregate")
	m := mis2FastAggregate(g, s, state, p)
	span.Done()

	// No random visit permutation, so the canonical order is the identity:
	// aggregates are numbered by their minimum member vertex id (same as
	// MIS2).
	nc := canonicalize(m, nil, p)
	return &Mapping{M: m, NC: nc, Passes: 1, PassMapped: []int64{int64(n)}}, nil
}

// mis2FastStates runs the worklist-driven random-priority elimination and
// returns the per-vertex state array (misIn marks the distance-2 MIS, and
// s.roots lists its members).
//
// Invariants maintained between rounds, for every vertex v (decided or
// not):
//
//	t1[v]   = the highest-priority undecided vertex in N[v] ∪ {v}, or
//	          unset — exactly MIS2's t1 array;
//	near[v] = 1 iff v is in the MIS or adjacent to an MIS vertex.
//
// A round recomputes t1 only where its cached value just became decided,
// re-decides only vertices whose closed-neighborhood t1 values changed, and
// eliminates only vertices within distance two of a *new* MIS member. Each
// quantity is reachable from the previous round's transitions, which is
// what makes the frontiers sound; since undecided sets only shrink, every
// skipped vertex provably keeps its value.
func mis2FastStates(g *graph.Graph, s *mis2Scratch, p int) []int32 {
	n := g.N()
	p = par.Workers(p, n) // scratch is sized for the clamped worker count
	key := s.key
	state := s.state
	t1 := s.t1
	near := s.near
	par.Fill(state, misUndecided, p)
	par.Fill(near, 0, p)
	s.roots = s.roots[:0]

	// recomputeT1 refreshes t1 for every vertex in list. The loop body is
	// written out inline: at ~5 loads per visited edge an indirect
	// per-element call would be a measurable fraction of the pass.
	recomputeT1 := func(list []int32) {
		par.ForChunked(len(list), p, 256, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				v := list[i]
				best := unset
				var bk uint64
				if state[v] == misUndecided {
					best, bk = v, key[v]
				}
				adj, _ := g.Neighbors(v)
				for _, u := range adj {
					if state[u] != misUndecided {
						continue
					}
					if ku := key[u]; best == unset || ku > bk || (ku == bk && u > best) {
						best, bk = u, ku
					}
				}
				t1[v] = best
			}
		})
	}

	// recomputeT1All is recomputeT1 over every vertex (the defensive full
	// resweep; round 0 uses the specialized all-undecided sweep instead).
	recomputeT1All := func() {
		par.ForChunked(n, p, 256, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				v := int32(i)
				best := unset
				var bk uint64
				if state[v] == misUndecided {
					best, bk = v, key[v]
				}
				adj, _ := g.Neighbors(v)
				for _, u := range adj {
					if state[u] != misUndecided {
						continue
					}
					if ku := key[u]; best == unset || ku > bk || (ku == bk && u > best) {
						best, bk = u, ku
					}
				}
				t1[v] = best
			}
		})
	}

	// decide appends v to the worker's buffer when v dominates its own
	// distance-2 neighborhood — MIS2's t2[v] == v test. Callers guarantee
	// t1[v] == v (v already beats N[v] ∪ {v}), so only a neighbor's t1
	// beating v can disqualify it and the scan exits on the first witness.
	// Each v appears once, so the state write is a race-free per-cell store.
	decide := func(w int, v int32) {
		kv := key[v]
		adj, _ := g.Neighbors(v)
		for _, u := range adj {
			if c := t1[u]; c != unset && c != v && (key[c] > kv || (key[c] == kv && c > v)) {
				return
			}
		}
		state[v] = misIn
		s.bufs[w] = append(s.bufs[w], v)
	}

	remaining := n
	full := true  // round 0 sweeps everything
	first := true // ... and everything is still undecided in round 0
	var frontier1, prevIn, prevOut []int32
	// Round and frontier counts reach obs once per call, not per round.
	var rounds, frontier int64
	for remaining > 0 {
		rounds++

		// Phase 1: refresh t1. In worklist rounds only vertices whose
		// cached best candidate just got decided can change; they are
		// exactly the closed neighbors v of a newly decided d with
		// t1[v] == d, so each changed vertex is claimed by exactly one d —
		// per-worker buffers, no atomics.
		switch {
		case first:
			// Round 0: every vertex is undecided, so the state checks
			// vanish and t1[v] is the plain key argmax over N[v] ∪ {v}.
			par.ForChunked(n, p, 256, func(_, lo, hi int) {
				for i := lo; i < hi; i++ {
					v := int32(i)
					best, bk := v, key[v]
					adj, _ := g.Neighbors(v)
					for _, u := range adj {
						if ku := key[u]; ku > bk || (ku == bk && u > best) {
							best, bk = u, ku
						}
					}
					t1[v] = best
				}
			})
		case full:
			recomputeT1All()
		default:
			s.resetBufs(p)
			scanDecided := func(list []int32) {
				par.ForChunked(len(list), p, 256, func(w, lo, hi int) {
					for i := lo; i < hi; i++ {
						d := list[i]
						if t1[d] == d {
							s.bufs[w] = append(s.bufs[w], d)
						}
						adj, _ := g.Neighbors(d)
						for _, u := range adj {
							if t1[u] == d {
								s.bufs[w] = append(s.bufs[w], u)
							}
						}
					}
				})
			}
			scanDecided(prevIn)
			scanDecided(prevOut)
			frontier1 = s.mergeBufs(&s.f1, p)
			recomputeT1(frontier1)
		}

		// Phase 2: decide. Only undecided local maxima (t1[v] == v;
		// anything else fails the t2 test outright) whose closed-
		// neighborhood t1 changed — members of N[frontier1] ∪ frontier1 —
		// can flip, and deciding them happens in the same pass that finds
		// them. In a full round every vertex is visited exactly once, so no
		// dedup is needed; worklist rounds claim each candidate with an
		// epoch-stamped mark first, which makes the winner the vertex's
		// unique owner: its state read and misIn write cannot race.
		s.resetBufs(p)
		if full {
			par.ForChunked(n, p, 256, func(w, lo, hi int) {
				for i := lo; i < hi; i++ {
					if state[i] == misUndecided && t1[i] == int32(i) {
						decide(w, int32(i))
					}
				}
			})
		} else {
			// The t1[v] == v test goes first: local maxima are rare, so
			// most visits end after one predictable load. The claim comes
			// before the state check so that the state access stays
			// single-owner; a decided vertex with a stale t1 == v merely
			// burns one claim.
			epoch := s.nextEpoch()
			par.ForChunked(len(frontier1), p, 256, func(w, lo, hi int) {
				for i := lo; i < hi; i++ {
					u := frontier1[i]
					if t1[u] == u && s.claimEpoch(u, epoch) && state[u] == misUndecided {
						decide(w, u)
					}
					adj, _ := g.Neighbors(u)
					for _, v := range adj {
						if t1[v] == v && s.claimEpoch(v, epoch) && state[v] == misUndecided {
							decide(w, v)
						}
					}
				}
			})
		}
		newlyIn := s.mergeBufs(&s.in, p)
		s.roots = append(s.roots, newlyIn...)

		// Phase 3: eliminate the distance-2 ball of the new MIS members.
		// near-mark 0→1 transitions (CAS-claimed) identify the vertices
		// whose ball newly intersects the MIS; their undecided closed
		// neighbors are claimed into the duplicate-free out list in the
		// same walk. State is read-only here — the misOut writes happen in
		// phase 4 once ownership is settled.
		s.resetBufs(p)
		epoch := s.nextEpoch()
		par.ForChunked(len(newlyIn), p, 256, func(w, lo, hi int) {
			outClaim := func(v int32) {
				if state[v] == misUndecided && s.claimEpoch(v, epoch) {
					s.bufs[w] = append(s.bufs[w], v)
				}
			}
			nearWalk := func(u int32) {
				if atomic.LoadInt32(&near[u]) != 0 || !atomic.CompareAndSwapInt32(&near[u], 0, 1) {
					return
				}
				outClaim(u)
				adj, _ := g.Neighbors(u)
				for _, v := range adj {
					outClaim(v)
				}
			}
			for i := lo; i < hi; i++ {
				d := newlyIn[i]
				nearWalk(d)
				adj, _ := g.Neighbors(d)
				for _, u := range adj {
					nearWalk(u)
				}
			}
		})
		newlyOut := s.mergeBufs(&s.out, p)
		frontier += int64(len(frontier1) + len(newlyIn) + len(newlyOut))

		// Phase 4: eliminate (unique owners, plain stores).
		par.ForChunked(len(newlyOut), p, 256, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				state[newlyOut[i]] = misOut
			}
		})

		remaining -= len(newlyIn) + len(newlyOut)
		if len(newlyIn)+len(newlyOut) == 0 {
			// Unreachable when the frontier invariants hold (the globally
			// highest undecided vertex always enters the MIS), but a full
			// resweep keeps the kernel safe rather than spinning if they
			// ever break.
			if full {
				break
			}
			full = true
			continue
		}
		full, first = false, false

		// Next round's t1 frontier is driven by this round's transitions.
		// The merged lists live in s.in/s.out, which phase 3/4b only
		// overwrite after phase 1 has consumed them.
		prevIn, prevOut = newlyIn, newlyOut
	}
	obs.Add(obs.CtrMIS2FastRounds, rounds)
	obs.Add(obs.CtrMIS2FastFrontier, frontier)
	return state
}

// mis2FastAggregate assigns every vertex to an MIS root. Distance-2
// independence guarantees a non-root vertex has at most one adjacent root,
// so the distance-1 phase scatters from the root list — every write has a
// unique owner, no scan of the remaining edges — and only the compacted
// distance-2 remainder rescans its neighborhoods. Root preference follows
// MIS2 exactly — the highest (key, id) root — so the resulting mapping is
// identical to MIS2's two full rescan rounds.
func mis2FastAggregate(g *graph.Graph, s *mis2Scratch, state []int32, p int) []int32 {
	n := g.N()
	key := s.key
	m := make([]int32, n) // escapes into the Mapping: not arena-owned
	par.Fill(m, unset, p)
	roots := s.roots
	par.ForEachChunked(len(roots), p, 64, func(i int) {
		r := roots[i]
		m[r] = r
		adj, _ := g.Neighbors(r)
		for _, u := range adj {
			m[u] = r // u's only adjacent root: an uncontended store
		}
	})
	// Compact the distance-2 remainder (typically a small fraction of n).
	rest := par.Pack(n, p, func(i int) bool { return m[i] == unset })
	// Join the best already-assigned neighbor's root. Reads m (complete
	// after the scatter above), writes the side buffer, then scatters back —
	// the same read-old/write-new discipline as MIS2's copied rounds.
	mRest := growI32(&s.f1, len(rest))
	par.ForEachChunked(len(rest), p, 64, func(i int) {
		v := rest[i]
		adj, _ := g.Neighbors(v)
		best := unset
		var bk uint64
		for _, u := range adj {
			r := m[u]
			if r == unset {
				continue
			}
			if kr := key[r]; best == unset || kr > bk || (kr == bk && r > best) {
				best, bk = r, kr
			}
		}
		if best == unset {
			best = v // unreached (degenerate inputs): singleton, as in MIS2
		}
		mRest[i] = best
	})
	par.ForEachChunked(len(rest), p, 256, func(i int) {
		m[rest[i]] = mRest[i]
	})
	return m
}
