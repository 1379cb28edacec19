package partition

import (
	"mlcg/internal/graph"
	"mlcg/internal/obs"
)

// FMOptions controls Fiduccia–Mattheyses refinement.
type FMOptions struct {
	// MaxPasses bounds the number of FM passes; each pass moves every
	// vertex at most once, ends after min(max(n/100, 15), 100) cut-raising
	// moves since its best prefix last improved, and rolls back to that
	// prefix. Zero means 8.
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
// (a gain store, single-move-per-vertex passes that end after a run of
// cut-raising moves, rollback to the best balanced prefix) and returns the
// final cut. The implementation is sequential, as in the paper ("Our FM
// implementation is currently sequential, running on the CPU").
//
// One fmState serves every pass of a call. Its opening sweep computes
// every gain, the side weights and the cut; after that the exact gains
// are carried from pass to pass (see fmState.keep), so a pass costs the
// store work of its moves plus one index-order insertion sweep, not a
// full recomputation. Because the gains are exact integers and each pass
// still links the vertices in index order, the pop order is the one a
// from-scratch recomputation builds.
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

// fmPassLimit is the number of cut-raising moves after which a pass on an
// n-vertex graph ends, counted since its best prefix last improved. Metis
// ends a 2-way FM pass after min(max(n/100, 15), 100) moves past its best
// prefix; only moves with a negative gain count here, which keeps the
// zero-gain moves that let a pass cross a plateau.
func fmPassLimit(n int) int {
	return min(max(n/100, 15), 100)
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

// fmNode is a vertex's entry in the gain store: its gain and two links. A
// vertex with prev == fmUnlinked is in no store, which within a pass means
// it is locked; a linked vertex has not moved this pass, so its side is its
// part. In the dense store next and prev link the vertex into its bucket's
// list; in the sparse store next is its index in its side's heap.
type fmNode struct {
	gain       int64
	next, prev int32
}

const fmUnlinked = -2

// fmDenseHeads bounds the dense store: it serves a graph while one side's
// 2·maxWdeg+1 bucket heads number at most fmDenseHeads·n, and the sparse
// store serves the rest.
const fmDenseHeads = 8

// fmState is the refinement state of one RefineFM call: the gain store,
// the move log, and the exact gains carried between passes.
//
// The store pops, on a side, the linked vertex of the highest gain and,
// among equal gains, the most recently linked one; vertices the balance
// test rejects stay linked. Two stores give that one order. The dense
// store is the classic FM bucket structure: one array of LIFO gain lists
// per side, indexed by gain offset by the maximum weighted degree (gains
// are bounded by it, |ext − int| ≤ Σ incident weight), with a moving
// max-gain pointer. Its heads grow with the edge weights, not with n, so a
// graph with one heavy edge gets the sparse store instead: one binary
// max-heap of linked vertices per side, keyed by (gain, link stamp), in
// O(n) memory. Every pass leaves the store empty, so newFMState allocates
// it once and the dense heads are filled with -1 only then.
type fmState struct {
	g    *graph.Graph
	part []int32
	node []fmNode
	// exact[u] is u's gain (external minus internal incident weight) under
	// part as it stands between passes.
	exact []int64

	sparse bool
	// The dense store.
	heads  [2][]int32
	maxPtr [2]int64
	off    int64
	// The sparse store. stamp[u] is the clock reading when u was last
	// linked at a new gain; stash holds the vertices a pop rejected until
	// it relinks them.
	heap  [2][]int32
	stamp []int64
	clock int64
	stash []int32

	maxVW int64 // largest vertex weight, at least 1
	w     [2]int64
	cut   int64
	moves []int32

	passes, moved, undone int64 // telemetry: passes run, moves made, moves rolled back
}

// newFMState runs the opening sweep — every vertex's gain and weighted
// degree, the side weights, the maximum vertex weight, and the cut as half
// the sum of the external weights — and allocates the gain store.
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
	s.initStore(2*s.off+1 > fmDenseHeads*int64(n))
	return s
}

// initStore allocates an empty sparse store when sparse is set and an
// empty dense store otherwise.
func (s *fmState) initStore(sparse bool) {
	n := len(s.node)
	s.sparse = sparse
	if sparse {
		s.heap = [2][]int32{make([]int32, 0, n), make([]int32, 0, n)}
		s.stamp = make([]int64, n)
		s.stash = make([]int32, 0, n)
		return
	}
	size := 2*s.off + 1
	heads := make([]int32, 2*size)
	for i := range heads {
		heads[i] = -1
	}
	s.heads[0], s.heads[1] = heads[:size], heads[size:]
}

// insert links u at gain on side part[u]: at the head of its bucket in
// the dense store, with a fresh stamp in the sparse one.
func (s *fmState) insert(u int32, gain int64) {
	nu := &s.node[u]
	nu.gain = gain
	if s.sparse {
		s.stamp[u] = s.clock
		s.clock++
		s.push(u)
		return
	}
	side := s.part[u]
	idx := gain + s.off
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
// empty store a pass starts from.
func (s *fmState) fill() {
	s.maxPtr = [2]int64{-1, -1}
	for u := range s.exact {
		s.insert(int32(u), s.exact[u])
	}
}

// unlink removes a linked vertex u from the store.
func (s *fmState) unlink(u int32) {
	nu := &s.node[u]
	if s.sparse {
		s.remove(s.part[u], int(nu.next))
	} else {
		if nu.prev >= 0 {
			s.node[nu.prev].next = nu.next
		} else {
			s.heads[s.part[u]][nu.gain+s.off] = nu.next
		}
		if nu.next >= 0 {
			s.node[nu.next].prev = nu.prev
		}
	}
	nu.prev = fmUnlinked
}

// clear unlinks the vertices a pass left linked, so that the next pass
// starts from an empty store.
func (s *fmState) clear() {
	if s.sparse {
		for side := range s.heap {
			for _, u := range s.heap[side] {
				s.node[u].prev = fmUnlinked
			}
			s.heap[side] = s.heap[side][:0]
		}
		return
	}
	for u := range s.node {
		if nu := &s.node[u]; nu.prev != fmUnlinked {
			s.heads[s.part[u]][nu.gain+s.off] = -1
			nu.prev = fmUnlinked
		}
	}
}

// peek returns the best gain linked on side, or a very negative sentinel
// when the side is empty.
func (s *fmState) peek(side int32) int64 {
	if s.sparse {
		if h := s.heap[side]; len(h) > 0 {
			return s.node[h[0]].gain
		}
		return -1 << 62
	}
	h := s.heads[side]
	for s.maxPtr[side] >= 0 && h[s.maxPtr[side]] < 0 {
		s.maxPtr[side]--
	}
	if s.maxPtr[side] < 0 {
		return -1 << 62
	}
	return s.maxPtr[side] - s.off
}

// fits reports whether moving v off side keeps the deviation dev within
// moveTol.
func (s *fmState) fits(v, side int32, dev, moveTol int64) bool {
	vw2 := 2 * s.g.VertexWeight(v)
	nd := dev - vw2
	if side == 1 {
		nd = dev + vw2
	}
	return -moveTol <= nd && nd <= moveTol
}

// pop unlinks and returns the first vertex, in pop order, on side whose
// move keeps the deviation dev within moveTol — or any vertex when forced.
// It returns -1 when none qualifies; vertices that fail the balance test
// stay linked.
func (s *fmState) pop(side int32, forced bool, dev, moveTol int64) int32 {
	if s.sparse {
		return s.popSparse(side, forced, dev, moveTol)
	}
	h := s.heads[side]
	for idx := s.maxPtr[side]; idx >= 0; idx-- {
		if h[idx] < 0 {
			if idx == s.maxPtr[side] {
				s.maxPtr[side]--
			}
			continue
		}
		for v := h[idx]; v >= 0; v = s.node[v].next {
			if forced || s.fits(v, side, dev, moveTol) {
				s.unlink(v)
				return v
			}
		}
	}
	return -1
}

// popSparse is pop on the sparse store. It takes vertices off the top of
// side's heap until one qualifies, then relinks the rejected ones with
// their stamps unchanged, so that their order is kept.
func (s *fmState) popSparse(side int32, forced bool, dev, moveTol int64) int32 {
	v := int32(-1)
	for len(s.heap[side]) > 0 {
		u := s.heap[side][0]
		s.unlink(u)
		if forced || s.fits(u, side, dev, moveTol) {
			v = u
			break
		}
		s.stash = append(s.stash, u)
	}
	for _, u := range s.stash {
		s.push(u)
	}
	s.stash = s.stash[:0]
	return v
}

// above reports whether u pops before v in the sparse store: a higher
// gain, or an equal gain and a later stamp.
func (s *fmState) above(u, v int32) bool {
	gu, gv := s.node[u].gain, s.node[v].gain
	return gu > gv || gu == gv && s.stamp[u] > s.stamp[v]
}

// push links u into its side's heap at its current gain and stamp.
func (s *fmState) push(u int32) {
	side := s.part[u]
	s.heap[side] = append(s.heap[side], u)
	s.node[u].prev = -1
	s.up(s.heap[side], len(s.heap[side])-1)
}

// remove unlinks the vertex at index i of side's heap.
func (s *fmState) remove(side int32, i int) {
	h := s.heap[side]
	last := len(h) - 1
	u := h[last]
	h = h[:last]
	s.heap[side] = h
	if i == last {
		return
	}
	h[i] = u
	if i > 0 && s.above(u, h[(i-1)/2]) {
		s.up(h, i)
	} else {
		s.down(h, i)
	}
}

// up moves h[i] towards the root to its place, keeping every vertex's
// heap index in node.next.
func (s *fmState) up(h []int32, i int) {
	u := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !s.above(u, h[p]) {
			break
		}
		h[i] = h[p]
		s.node[h[i]].next = int32(i)
		i = p
	}
	h[i] = u
	s.node[u].next = int32(i)
}

// down moves h[i] towards the leaves to its place.
func (s *fmState) down(h []int32, i int) {
	u := h[i]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && s.above(h[c+1], h[c]) {
			c++
		}
		if !s.above(h[c], u) {
			break
		}
		h[i] = h[c]
		s.node[h[i]].next = int32(i)
		i = c
	}
	h[i] = u
	s.node[u].next = int32(i)
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
	limit, raised := fmPassLimit(n), 0
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
		side, gain := part[v], node[v].gain
		part[v] = 1 - side
		vw := g.VertexWeight(v)
		s.w[side] -= vw
		s.w[1-side] += vw
		s.cut -= gain
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
			raised = 0
		} else if gain < 0 {
			if raised++; raised == limit {
				break
			}
		}
	}
	s.moves = moves
	s.passes++
	s.moved += int64(len(moves))
	s.undone += int64(len(moves) - bestIdx)

	// A pass that stopped before moving every vertex leaves its unmoved
	// vertices linked.
	if len(moves) < n {
		s.clear()
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
