package coarsen

import (
	"mlcg/internal/graph"
	"mlcg/internal/par"
)

// BSuitor implements coarsening via b-matching with the b-Suitor algorithm
// of Khan, Pothen, et al. (SISC 2016) — the paper's second named
// future-work direction ("evaluating b-matching and the b-Suitor algorithm
// [30] for coarsening"). Every vertex may keep up to B partners; the
// greedy-equivalent 1/2-approximate maximum weight b-matching is computed
// by proposals into per-vertex suitor lists, and the aggregates are the
// connected components of the mutual-match edge set. With B = 1 this
// degenerates to Suitor; B = 2 (the default) yields path/cycle components
// and coarsening ratios up to ~3, between matching and HEC.
type BSuitor struct {
	// B is the per-vertex partner bound. Zero means 2.
	B int
}

// Name implements Mapper.
func (BSuitor) Name() string { return "bsuitor" }

// suitorList is one vertex's bounded list of current proposals, kept
// sorted ascending by (weight, tie) so the weakest entry is evicted first.
type suitorList struct {
	who []int32
	w   []int64
}

// worst returns the weakest current proposal (the admission threshold).
func (s *suitorList) worst() (int32, int64) {
	if len(s.who) == 0 {
		return -1, -1
	}
	return s.who[0], s.w[0]
}

// insert adds a proposal, evicting the weakest if the list is full.
// Returns the evicted vertex (or -1). Caller guarantees the proposal
// beats the current worst when the list is full.
func (s *suitorList) insert(u int32, w int64, b int, better func(w1 int64, u1 int32, w2 int64, u2 int32) bool) int32 {
	evicted := int32(-1)
	if len(s.who) == b {
		evicted = s.who[0]
		s.who = s.who[1:]
		s.w = s.w[1:]
	}
	// Insertion keeping ascending order by (w, tie).
	i := 0
	for i < len(s.who) && better(w, u, s.w[i], s.who[i]) {
		i++
	}
	s.who = append(s.who, 0)
	s.w = append(s.w, 0)
	copy(s.who[i+1:], s.who[i:])
	copy(s.w[i+1:], s.w[i:])
	s.who[i] = u
	s.w[i] = w
	return evicted
}

// contains reports whether u is in the list.
func (s *suitorList) contains(u int32) bool {
	for _, x := range s.who {
		if x == u {
			return true
		}
	}
	return false
}

// Map implements Mapper.
func (bs BSuitor) Map(g *graph.Graph, seed uint64, ex par.Exec) (*Mapping, error) {
	n := g.N()
	b := bs.B
	if b <= 0 {
		b = 2
	}
	lists, pos := bsuitorLists(g, seed, ex, b)

	// Mutual proposals form the b-matching; aggregates are its connected
	// components (paths/cycles for b=2), found by union-find.
	span := ex.Span.Child("bsuitor:components")
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, bv int32) {
		ra, rb := find(a), find(bv)
		if ra != rb {
			if ra > rb {
				ra, rb = rb, ra
			}
			parent[rb] = ra
		}
	}
	for u := int32(0); int(u) < n; u++ {
		for _, v := range lists[u].who {
			if lists[v].contains(u) {
				union(u, v)
			}
		}
	}
	m := make([]int32, n)
	for u := int32(0); int(u) < n; u++ {
		m[u] = find(u)
	}
	span.End()
	nc := canonicalize(m, pos, ex)
	return &Mapping{M: m, NC: nc, Passes: 1, PassMapped: []int64{int64(n)}}, nil
}

// bsuitorLists runs the proposal rounds and returns every vertex's final
// suitor list (exposed for the invariant tests) together with the random
// permutation positions used, which drive the canonical relabeling.
func bsuitorLists(g *graph.Graph, seed uint64, ex par.Exec, b int) ([]suitorList, []int32) {
	n := g.N()
	perm := par.RandPerm(n, seed, ex)
	pos := par.InversePerm(perm, ex)

	// better reports whether proposal (w1 from u1) beats (w2 from u2).
	better := func(w1 int64, u1 int32, w2 int64, u2 int32) bool {
		if w1 != w2 {
			return w1 > w2
		}
		if u2 < 0 {
			return true
		}
		return pos[u1] < pos[u2]
	}

	lists := make([]suitorList, n)
	// propCount tracks how many proposals u currently has standing, so a
	// dislodged vertex re-proposes for the lost slot only.
	standing := make([]int32, n)

	// Sequential b-Suitor (the parallel variant would lock per-vertex
	// lists exactly like parallelSuitor; coarsening cost is dominated by
	// construction, so the sequential matcher keeps this variant simple
	// and deterministic).
	span := ex.Span.Child("bsuitor:propose")
	defer span.End()
	stack := make([]int32, 0, 64)
	nextWork := func() int32 {
		if len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			return u
		}
		return -1
	}
	process := func(start int32) {
		u := start
		for u >= 0 {
			// u needs (b - standing[u]) more proposals; make one.
			if standing[u] >= int32(b) {
				u = nextWork()
				continue
			}
			adj, wgt := g.Neighbors(u)
			best := int32(-1)
			var bw int64 = -1
			for k, v := range adj {
				w := wgt[k]
				if lists[v].contains(u) {
					continue // u already proposed to v
				}
				// Admissible if v's list has room or we beat its worst.
				wv, ww := lists[v].worst()
				admissible := len(lists[v].who) < b || better(w, u, ww, wv)
				if admissible && (best < 0 || better(w, v, bw, best)) {
					best, bw = v, w
				}
			}
			if best < 0 {
				// u cannot place more proposals; drain the dislodge stack.
				u = nextWork()
				continue
			}
			evicted := lists[best].insert(u, bw, b, better)
			standing[u]++
			if evicted >= 0 {
				standing[evicted]--
				stack = append(stack, evicted)
			}
		}
	}
	for _, u := range perm {
		process(u)
	}
	return lists, pos
}
