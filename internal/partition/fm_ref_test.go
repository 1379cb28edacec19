package partition

import (
	"mlcg/internal/graph"
)

// The FM implementation below is the one RefineFM replaced, kept (with
// RefineFM renamed refineFMRef) as the oracle of fm_test.go: every pass
// recomputes every gain with gainOf, builds a fresh gain store, and
// re-derives the side weights, while the ordering key (fmKey), the
// default tolerance (fmTol) and the early-exit limit (fmPassLimit) are
// shared with the production code. Its gain store is a linear scan in
// place of the bucket arrays it had, so that it runs at any edge weight.
// RefineFM must reproduce its part vectors and returned cuts exactly.

// refineFMRef is the reference for RefineFM: it improves a bisection in
// place with Fiduccia–Mattheyses passes (a gain store,
// single-move-per-vertex passes, rollback to the best balanced prefix) and
// returns the final cut.
func refineFMRef(g *graph.Graph, part []int32, opt FMOptions) int64 {
	n := g.N()
	if n == 0 {
		return 0
	}
	tol := fmTol(g, opt.Tol)
	target0 := opt.TargetW0
	if target0 <= 0 {
		target0 = g.TotalVertexWeight() / 2
	}
	cut := EdgeCut(g, part)
	for pass := 0; pass < opt.maxPasses(); pass++ {
		improved, newCut := fmPass(g, part, cut, tol, target0)
		cut = newCut
		if !improved {
			break
		}
	}
	return cut
}

// fmPass runs one FM pass toward side-0 weight target0 and reports
// whether the cut or the balance improved. part is updated to the best
// prefix found. The deviation measure is 2·(w0 − target0), which for the
// half target reduces to the classic w0 − w1.
func fmPass(g *graph.Graph, part []int32, cut, tol, target0 int64) (bool, int64) {
	n := g.N()
	w := SideWeights(g, part)
	dev := func() int64 { return 2 * (w[0] - target0) }

	var maxVW int64 = 1
	for u := int32(0); int(u) < n; u++ {
		if vw := g.VertexWeight(u); vw > maxVW {
			maxVW = vw
		}
	}
	// Mid-pass moves may overshoot the tolerance by one vertex on each
	// side (the classic FM balance criterion); recorded prefixes are still
	// judged against tol itself.
	moveTol := tol
	if 2*maxVW > moveTol {
		moveTol = 2 * maxVW
	}

	b := newGainBuckets(g, part)
	locked := make([]bool, n)

	moves := make([]int32, 0, n)
	curCut := cut
	mkKey := func(c int64) fmKey {
		imb := dev()
		if imb < 0 {
			imb = -imb
		}
		over := imb - tol
		if over < 0 {
			over = 0
		}
		return fmKey{over, c, imb}
	}
	startKey := mkKey(cut)
	bestKey := startKey
	bestIdx := 0 // number of moves in the best prefix (0 = no moves)
	// The pass ends after fmPassLimit(n) moves with a negative gain since
	// the best prefix last improved.
	raised := 0

	for {
		// Pick the side to move from: a forced rebalance when out of
		// tolerance, otherwise the side offering the best gain whose move
		// stays within the mid-pass tolerance.
		v := int32(-1)
		if d := dev(); d > tol {
			v = b.popBest(0, func(int32) bool { return true })
		} else if -d > tol {
			v = b.popBest(1, func(int32) bool { return true })
		} else {
			allowed := func(side int32) func(int32) bool {
				return func(u int32) bool {
					vw := g.VertexWeight(u)
					nd := dev()
					if side == 0 {
						nd -= 2 * vw
					} else {
						nd += 2 * vw
					}
					if nd < 0 {
						nd = -nd
					}
					return nd <= moveTol
				}
			}
			g0, g1 := b.peekBest(0), b.peekBest(1)
			first, second := int32(0), int32(1)
			if g1 > g0 {
				first, second = 1, 0
			}
			v = b.popBest(first, allowed(first))
			if v < 0 {
				v = b.popBest(second, allowed(second))
			}
		}
		if v < 0 {
			break
		}
		gain := b.gain[v]
		side := part[v]
		part[v] = 1 - side
		vw := g.VertexWeight(v)
		w[side] -= vw
		w[1-side] += vw
		curCut -= gain
		locked[v] = true
		moves = append(moves, v)

		// Update unlocked neighbors' gains: an edge to the old side turns
		// external (+2w), an edge to the new side turns internal (-2w).
		adj, wgt := g.Neighbors(v)
		for k, u := range adj {
			if locked[u] {
				continue
			}
			delta := 2 * wgt[k]
			if part[u] == side {
				b.updateGain(u, b.gain[u]+delta)
			} else {
				b.updateGain(u, b.gain[u]-delta)
			}
		}

		if key := mkKey(curCut); key.less(bestKey) {
			bestKey = key
			bestIdx = len(moves)
			raised = 0
		} else if gain < 0 {
			raised++
			if raised == fmPassLimit(n) {
				break
			}
		}
	}

	// Roll back the moves beyond the best prefix.
	for i := len(moves) - 1; i >= bestIdx; i-- {
		part[moves[i]] = 1 - part[moves[i]]
	}
	return bestKey.less(startKey), bestKey.cut
}

// gainBuckets is the reference gain store: a linear scan over every
// vertex, O(n) per pop, so that it takes any edge weight. A pop takes, on
// the given side, the linked vertex with the highest gain and, among equal
// gains, the latest link stamp, that the balance test accepts — the order
// of classic FM buckets with LIFO gain lists, by construction.
type gainBuckets struct {
	gain   []int64
	stamp  []int64
	side   []int32
	inList []bool
	clock  int64
}

func newGainBuckets(g *graph.Graph, part []int32) *gainBuckets {
	n := g.N()
	b := &gainBuckets{
		gain:   make([]int64, n),
		stamp:  make([]int64, n),
		side:   make([]int32, n),
		inList: make([]bool, n),
	}
	for u := int32(0); int(u) < n; u++ {
		b.insert(u, part[u], gainOf(g, part, u))
	}
	return b
}

func (b *gainBuckets) insert(v, side int32, gain int64) {
	b.gain[v] = gain
	b.side[v] = side
	b.inList[v] = true
	b.stamp[v] = b.clock
	b.clock++
}

func (b *gainBuckets) remove(v int32) {
	b.inList[v] = false
}

func (b *gainBuckets) updateGain(v int32, gain int64) {
	if !b.inList[v] {
		b.gain[v] = gain
		return
	}
	b.insert(v, b.side[v], gain)
}

// peekBest returns the best available gain on the given side, or a very
// negative sentinel when the side is empty.
func (b *gainBuckets) peekBest(side int32) int64 {
	best := int64(-1 << 62)
	for v, in := range b.inList {
		if in && b.side[v] == side && b.gain[v] > best {
			best = b.gain[v]
		}
	}
	return best
}

// popBest removes and returns the highest-gain vertex on side satisfying
// allowed, or -1. Vertices skipped by allowed stay linked.
func (b *gainBuckets) popBest(side int32, allowed func(int32) bool) int32 {
	best := int32(-1)
	for v, in := range b.inList {
		u := int32(v)
		if !in || b.side[u] != side || !allowed(u) {
			continue
		}
		if best < 0 || b.gain[u] > b.gain[best] || b.gain[u] == b.gain[best] && b.stamp[u] > b.stamp[best] {
			best = u
		}
	}
	if best >= 0 {
		b.remove(best)
	}
	return best
}

// gainOf returns the FM gain of moving u to the other side: external minus
// internal incident edge weight.
func gainOf(g *graph.Graph, part []int32, u int32) int64 {
	adj, wgt := g.Neighbors(u)
	var gain int64
	for k, v := range adj {
		if part[v] == part[u] {
			gain -= wgt[k]
		} else {
			gain += wgt[k]
		}
	}
	return gain
}
