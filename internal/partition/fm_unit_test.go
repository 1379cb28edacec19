package partition

import (
	"testing"

	"mlcg/internal/graph"
)

// gainStore is what the store tests drive: the pop order on one side, over
// fmState's two stores and the reference's linear scan.
type gainStore interface {
	peek(side int32) int64
	pop(side int32, forced bool, dev, moveTol int64) int32
	unlink(u int32)
	insert(u int32, gain int64)
}

// refStore drives the reference's gainBuckets through gainStore.
type refStore struct {
	*gainBuckets
	g *graph.Graph
}

func (r refStore) peek(side int32) int64      { return r.peekBest(side) }
func (r refStore) unlink(u int32)             { r.remove(u) }
func (r refStore) insert(u int32, gain int64) { r.gainBuckets.insert(u, r.side[u], gain) }

func (r refStore) pop(side int32, forced bool, dev, moveTol int64) int32 {
	return r.popBest(side, func(u int32) bool {
		if forced {
			return true
		}
		nd := dev - 2*r.g.VertexWeight(u)
		if side == 1 {
			nd = dev + 2*r.g.VertexWeight(u)
		}
		return -moveTol <= nd && nd <= moveTol
	})
}

// gainStores returns every store filled with the gains of part on g.
func gainStores(g *graph.Graph, part []int32) map[string]gainStore {
	stores := map[string]gainStore{"reference": refStore{newGainBuckets(g, part), g}}
	for name, sparse := range map[string]bool{"dense": false, "sparse": true} {
		s := newFMState(g, part)
		s.initStore(sparse)
		s.fill()
		stores[name] = s
	}
	return stores
}

func TestGainBucketsBasics(t *testing.T) {
	// Path 0-1-2-3 split [0,0,1,1]: gains are -1, 0, 0, -1.
	g := pathGraph(4)
	for name, s := range gainStores(g, []int32{0, 0, 1, 1}) {
		if got := s.peek(0); got != 0 {
			t.Errorf("%s: side 0 best gain %d, want 0 (vertex 1)", name, got)
		}
		if got := s.peek(1); got != 0 {
			t.Errorf("%s: side 1 best gain %d, want 0 (vertex 2)", name, got)
		}
		v := s.pop(0, true, 0, 0)
		if v != 1 {
			t.Errorf("%s: popped %d, want 1", name, v)
		}
		// After popping vertex 1, side 0's best is vertex 0 with gain -1.
		if got := s.peek(0); got != -1 {
			t.Errorf("%s: side 0 best now %d, want -1", name, got)
		}
		// A gain update relinks at the right bucket. Legal gains are
		// bounded by the maximum weighted degree (2 on this path), which
		// sizes the dense buckets.
		s.unlink(0)
		s.insert(0, 2)
		if got := s.peek(0); got != 2 {
			t.Errorf("%s: after update best %d, want 2", name, got)
		}
		// Unlinking the last vertex empties the side.
		s.unlink(0)
		if got := s.pop(0, true, 0, 0); got != -1 {
			t.Errorf("%s: side 0 should be empty, popped %d", name, got)
		}
	}
}

func TestPopBestRespectsFilter(t *testing.T) {
	// Vertex 1 (the best on side 0) weighs 3: from a balanced start, moving
	// it would leave deviation -6, beyond a mid-pass tolerance of 2.
	g := pathGraph(4)
	g.VWgt = []int64{1, 3, 1, 1}
	for name, s := range gainStores(g, []int32{0, 0, 1, 1}) {
		if v := s.pop(0, false, 0, 2); v != 0 {
			t.Errorf("%s: popped %d, want 0", name, v)
		}
		// Vertex 1 stayed linked, and a forced pop takes it.
		if got := s.pop(0, true, 0, 2); got != 1 {
			t.Errorf("%s: popped %d, want 1", name, got)
		}
	}
}

func TestFMMaxPassesBounds(t *testing.T) {
	g := gridGraph(12, 12)
	mk := func() []int32 {
		p := make([]int32, g.N())
		for i := range p {
			p[i] = int32(i % 2)
		}
		return p
	}
	one := mk()
	cut1 := RefineFM(g, one, FMOptions{MaxPasses: 1})
	many := mk()
	cutN := RefineFM(g, many, FMOptions{MaxPasses: 12})
	if cutN > cut1 {
		t.Errorf("more passes worsened the cut: %d vs %d", cutN, cut1)
	}
}

func TestFMOnEdgelessGraph(t *testing.T) {
	g := graph.MustFromEdges(4, nil)
	part := []int32{0, 1, 0, 1}
	if cut := RefineFM(g, part, FMOptions{}); cut != 0 {
		t.Errorf("cut %d on edgeless graph", cut)
	}
}

func TestCheckBisectionCustomTolerance(t *testing.T) {
	g := pathGraph(5) // odd total
	part := []int32{0, 0, 0, 1, 1}
	if err := CheckBisection(g, part, 1); err != nil {
		t.Errorf("|3-2|=1 should pass tol 1: %v", err)
	}
	part2 := []int32{0, 0, 0, 0, 1}
	if err := CheckBisection(g, part2, 1); err == nil {
		t.Error("|4-1|=3 passed tol 1")
	}
	if err := CheckBisection(g, part2, 3); err != nil {
		t.Errorf("tol 3 should pass: %v", err)
	}
}
