package partition

import (
	"testing"

	"mlcg/internal/graph"
)

func TestGainBucketsBasics(t *testing.T) {
	// Path 0-1-2-3 split [0,0,1,1]: gains are -1, 0, 0, -1.
	g := pathGraph(4)
	part := []int32{0, 0, 1, 1}
	s := newFMState(g, part)
	s.fill()
	if got := s.peek(0); got != 0 {
		t.Errorf("side 0 best gain %d, want 0 (vertex 1)", got)
	}
	if got := s.peek(1); got != 0 {
		t.Errorf("side 1 best gain %d, want 0 (vertex 2)", got)
	}
	v := s.pop(0, true, 0, 0)
	if v != 1 {
		t.Errorf("popped %d, want 1", v)
	}
	// After popping vertex 1, side 0's best is vertex 0 with gain -1.
	if got := s.peek(0); got != -1 {
		t.Errorf("side 0 best now %d, want -1", got)
	}
	// A gain update relinks at the right bucket. Legal gains are bounded
	// by the maximum weighted degree (2 on this path), which sizes the
	// buckets.
	s.unlink(0)
	s.insert(0, 2)
	if got := s.peek(0); got != 2 {
		t.Errorf("after update best %d, want 2", got)
	}
	// Unlinking the last vertex empties the side.
	s.unlink(0)
	if got := s.pop(0, true, 0, 0); got != -1 {
		t.Errorf("side 0 should be empty, popped %d", got)
	}
}

func TestPopBestRespectsFilter(t *testing.T) {
	// Vertex 1 (the best on side 0) weighs 3: from a balanced start, moving
	// it would leave deviation -6, beyond a mid-pass tolerance of 2.
	g := pathGraph(4)
	g.VWgt = []int64{1, 3, 1, 1}
	part := []int32{0, 0, 1, 1}
	s := newFMState(g, part)
	s.fill()
	if v := s.pop(0, false, 0, 2); v != 0 {
		t.Errorf("popped %d, want 0", v)
	}
	// Vertex 1 stayed in its bucket, and a forced pop takes it.
	if got := s.pop(0, true, 0, 2); got != 1 {
		t.Errorf("popped %d, want 1", got)
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
