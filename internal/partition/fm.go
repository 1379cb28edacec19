package partition

import (
	"mlcg/internal/graph"
	"mlcg/internal/obs"
)

// FMOptions controls Fiduccia–Mattheyses refinement.
type FMOptions struct {
	// MaxPasses bounds the number of full FM passes; each pass moves every
	// vertex at most once and rolls back to its best prefix. Zero means 8.
	MaxPasses int
	// Tol is the allowed balance deviation (see TargetW0); zero means the
	// maximum vertex weight of the graph (the tightest generally
	// achievable bound, which at the finest level of a unit-weight graph
	// means an essentially perfect bisection, matching the paper's
	// no-imbalance reporting).
	Tol int64
	// TargetW0 is the desired total vertex weight of side 0; zero means
	// half of the total (a plain bisection). Non-half targets are used by
	// the recursive k-way partitioner to peel off proportional pieces.
	TargetW0 int64
}

func (o FMOptions) maxPasses() int {
	if o.MaxPasses <= 0 {
		return 8
	}
	return o.MaxPasses
}

func fmTol(g *graph.Graph, tol int64) int64 {
	if tol > 0 {
		return tol
	}
	t := int64(1)
	for u := int32(0); u < g.NumV; u++ {
		if w := g.VertexWeight(u); w > t {
			t = w
		}
	}
	return t
}

// RefineFM improves a bisection in place with Fiduccia–Mattheyses passes
// (gain buckets, single-move-per-vertex passes, rollback to the best
// balanced prefix) and returns the final cut. The implementation is
// sequential, as in the paper ("Our FM implementation is currently
// sequential, running on the CPU").
//
// One fmState serves every pass of a call. Its opening sweep computes
// every gain, the side weights and the cut; after that the exact gains
// are carried from pass to pass (see fmState.keep), so a pass costs the
// bucket work of its moves plus one index-order insertion sweep, not a
// full recomputation. Because the gains are exact integers and each pass
// still inserts the vertices in index order at the bucket heads, every
// bucket list, and therefore the pop order, is the one a from-scratch
// recomputation builds.
func RefineFM(g *graph.Graph, part []int32, opt FMOptions) int64 {
	return refineFM(g, part, opt, obs.Ambient())
}

// refineFM is RefineFM with its "fm" span opened under span.
func refineFM(g *graph.Graph, part []int32, opt FMOptions, span *obs.Span) int64 {
	if g.N() == 0 {
		return 0
	}
	sp := span.Child("fm")
	s := newFMState(g, part)
	tol := opt.Tol
	if tol <= 0 {
		tol = s.maxVW
	}
	target0 := opt.TargetW0
	if target0 <= 0 {
		target0 = (s.w[0] + s.w[1]) / 2
	}
	for pass := 0; pass < opt.maxPasses(); pass++ {
		if !s.pass(tol, target0) {
			break
		}
	}
	sp.Add(obs.CtrFMPasses, s.passes)
	sp.Add(obs.CtrFMMoves, s.moved)
	sp.Add(obs.CtrFMRollbacks, s.undone)
	sp.End()
	return s.cut
}

// fmKey orders partition states lexicographically: first by how far the
// imbalance exceeds the tolerance, then by cut, then by imbalance. A pass
// therefore prefers restoring balance, then cutting fewer edges.
type fmKey struct {
	over, cut, imb int64
}

func (a fmKey) less(b fmKey) bool {
	if a.over != b.over {
		return a.over < b.over
	}
	if a.cut != b.cut {
		return a.cut < b.cut
	}
	return a.imb < b.imb
}

// fmNode is a vertex's entry in the gain buckets: its gain and its links
// in the doubly-linked list of one bucket. A vertex with prev == fmUnlinked
// is in no bucket, which within a pass means it is locked; a linked
// vertex has not moved this pass, so its side is its part.
type fmNode struct {
	gain       int64
	next, prev int32
}

const fmUnlinked = -2

// fmState is the refinement state of one RefineFM call: the classic FM
// bucket structure (one array of gain lists per side, indexed by gain
// offset by the maximum weighted degree, with a moving max-gain pointer),
// the move log, and the exact gains carried between passes. Gains are
// bounded by the maximum weighted degree (|ext − int| ≤ Σ incident weight),
// which sizes the bucket arrays once. Every pass leaves all buckets
// empty, so the heads are filled with -1 only at allocation.
type fmState struct {
	g    *graph.Graph
	part []int32
	node []fmNode
	// exact[u] is u's gain (external minus internal incident weight) under
	// part as it stands between passes.
	exact  []int64
	heads  [2][]int32
	maxPtr [2]int64
	off    int64
	maxVW  int64 // largest vertex weight, at least 1
	w      [2]int64
	cut    int64
	moves  []int32

	passes, moved, undone int64 // telemetry: passes run, moves made, moves rolled back
}

// newFMState runs the opening sweep: every vertex's gain and weighted
// degree, the side weights, the maximum vertex weight, and the cut as half
// the sum of the external weights.
func newFMState(g *graph.Graph, part []int32) *fmState {
	n := g.N()
	s := &fmState{
		g:     g,
		part:  part,
		node:  make([]fmNode, n),
		exact: make([]int64, n),
		maxVW: 1,
		moves: make([]int32, 0, n),
	}
	var ext2 int64
	for u := int32(0); int(u) < n; u++ {
		adj, wgt := g.Neighbors(u)
		pu := part[u]
		var wd, ext int64
		for k, v := range adj {
			wd += wgt[k]
			if part[v] != pu {
				ext += wgt[k]
			}
		}
		s.exact[u] = 2*ext - wd
		ext2 += ext
		if wd > s.off {
			s.off = wd
		}
		vw := g.VertexWeight(u)
		if vw > s.maxVW {
			s.maxVW = vw
		}
		s.w[pu] += vw
		s.node[u].prev = fmUnlinked
	}
	s.cut = ext2 / 2
	size := 2*s.off + 1
	heads := make([]int32, 2*size)
	for i := range heads {
		heads[i] = -1
	}
	s.heads[0], s.heads[1] = heads[:size], heads[size:]
	return s
}

// insert links u at the head of the bucket for gain on side part[u].
func (s *fmState) insert(u int32, gain int64) {
	side := s.part[u]
	idx := gain + s.off
	nu := &s.node[u]
	nu.gain = gain
	head := s.heads[side][idx]
	nu.next = head
	nu.prev = -1
	if head >= 0 {
		s.node[head].prev = u
	}
	s.heads[side][idx] = u
	if idx > s.maxPtr[side] {
		s.maxPtr[side] = idx
	}
}

// fill links every vertex at its carried gain, in index order, into the
// empty buckets a pass starts from.
func (s *fmState) fill() {
	s.maxPtr = [2]int64{-1, -1}
	for u := range s.exact {
		s.insert(int32(u), s.exact[u])
	}
}

// unlink removes a linked vertex u from its bucket.
func (s *fmState) unlink(u int32) {
	nu := &s.node[u]
	if nu.prev >= 0 {
		s.node[nu.prev].next = nu.next
	} else {
		s.heads[s.part[u]][nu.gain+s.off] = nu.next
	}
	if nu.next >= 0 {
		s.node[nu.next].prev = nu.prev
	}
	nu.prev = fmUnlinked
}

// peek returns the best gain linked on side, or a very negative sentinel
// when the side is empty.
func (s *fmState) peek(side int32) int64 {
	h := s.heads[side]
	for s.maxPtr[side] >= 0 && h[s.maxPtr[side]] < 0 {
		s.maxPtr[side]--
	}
	if s.maxPtr[side] < 0 {
		return -1 << 62
	}
	return s.maxPtr[side] - s.off
}

// pop unlinks and returns the first vertex, in bucket order from the
// highest gain down, on side whose move keeps the deviation dev within
// moveTol — or any vertex when forced. It returns -1 when none qualifies;
// vertices that fail the balance test stay linked.
func (s *fmState) pop(side int32, forced bool, dev, moveTol int64) int32 {
	h := s.heads[side]
	for idx := s.maxPtr[side]; idx >= 0; idx-- {
		if h[idx] < 0 {
			if idx == s.maxPtr[side] {
				s.maxPtr[side]--
			}
			continue
		}
		for v := h[idx]; v >= 0; v = s.node[v].next {
			if !forced {
				vw2 := 2 * s.g.VertexWeight(v)
				nd := dev - vw2
				if side == 1 {
					nd = dev + vw2
				}
				if nd < -moveTol || nd > moveTol {
					continue
				}
			}
			s.unlink(v)
			return v
		}
	}
	return -1
}

func (s *fmState) key(target0, tol int64) fmKey {
	imb := 2 * (s.w[0] - target0)
	if imb < 0 {
		imb = -imb
	}
	over := imb - tol
	if over < 0 {
		over = 0
	}
	return fmKey{over, s.cut, imb}
}

// pass runs one FM pass toward side-0 weight target0 and reports whether
// the cut or the balance improved. part is left at the best prefix found
// and s.cut, s.w and the carried gains describe it. The deviation measure
// is 2·(w0 − target0), which for the half target reduces to the classic
// w0 − w1.
func (s *fmState) pass(tol, target0 int64) bool {
	g, part, node := s.g, s.part, s.node
	n := len(node)
	// Mid-pass moves may overshoot the tolerance by one vertex on each
	// side (the classic FM balance criterion); recorded prefixes are still
	// judged against tol itself.
	moveTol := tol
	if 2*s.maxVW > moveTol {
		moveTol = 2 * s.maxVW
	}

	s.fill()
	startKey := s.key(target0, tol)
	bestKey, bestW := startKey, s.w
	bestIdx := 0 // number of moves in the best prefix (0 = no moves)
	moves := s.moves[:0]
	for {
		// Pick the side to move from: a forced rebalance when out of
		// tolerance, otherwise the side offering the best gain whose move
		// stays within the mid-pass tolerance.
		var v int32
		if d := 2 * (s.w[0] - target0); d > tol {
			v = s.pop(0, true, d, moveTol)
		} else if -d > tol {
			v = s.pop(1, true, d, moveTol)
		} else {
			first := int32(0)
			if s.peek(1) > s.peek(0) {
				first = 1
			}
			v = s.pop(first, false, d, moveTol)
			if v < 0 {
				v = s.pop(1-first, false, d, moveTol)
			}
		}
		if v < 0 {
			break
		}
		side := part[v]
		part[v] = 1 - side
		vw := g.VertexWeight(v)
		s.w[side] -= vw
		s.w[1-side] += vw
		s.cut -= node[v].gain
		moves = append(moves, v)

		// Update linked neighbours' gains: an edge to the old side turns
		// external (+2w), an edge to the new side turns internal (-2w).
		adj, wgt := g.Neighbors(v)
		for k, u := range adj {
			if node[u].prev == fmUnlinked {
				continue
			}
			delta := 2 * wgt[k]
			if part[u] != side {
				delta = -delta
			}
			s.unlink(u)
			s.insert(u, node[u].gain+delta)
		}

		if key := s.key(target0, tol); key.less(bestKey) {
			bestKey, bestW = key, s.w
			bestIdx = len(moves)
		}
	}
	s.moves = moves
	s.passes++
	s.moved += int64(len(moves))
	s.undone += int64(len(moves) - bestIdx)

	// A pass that stopped before moving every vertex leaves its unmoved
	// vertices linked; unlink them so the next pass starts from empty
	// buckets.
	if len(moves) < n {
		for u := int32(0); int(u) < n; u++ {
			if node[u].prev != fmUnlinked {
				s.heads[part[u]][node[u].gain+s.off] = -1
				node[u].prev = fmUnlinked
			}
		}
	}

	// Roll back the moves beyond the best prefix.
	for i := len(moves) - 1; i >= bestIdx; i-- {
		part[moves[i]] = 1 - part[moves[i]]
	}
	s.cut, s.w = bestKey.cut, bestW
	s.keep(moves[:bestIdx])
	return bestKey.less(startKey)
}

// keep brings the carried gains up to date after the vertices of kept
// have flipped sides (part already shows the flips). An edge changes
// between internal and external exactly when one endpoint flipped. So
// each flipped vertex first negates its gain, which is right for its
// edges to unflipped neighbours; then every edge {v, u} with v flipped
// adds 2w to u's gain if the edge is now external and subtracts 2w if it
// is now internal. That moves an unflipped endpoint's gain by the edge's
// change and undoes the negation on both ends of an edge whose endpoints
// both flipped. The cost is the degree sum of kept, not O(m).
func (s *fmState) keep(kept []int32) {
	g, part, exact := s.g, s.part, s.exact
	for _, v := range kept {
		exact[v] = -exact[v]
	}
	for _, v := range kept {
		pv := part[v]
		adj, wgt := g.Neighbors(v)
		for k, u := range adj {
			if part[u] != pv {
				exact[u] += 2 * wgt[k]
			} else {
				exact[u] -= 2 * wgt[k]
			}
		}
	}
}
