package coarsen

import (
	"testing"

	"mlcg/internal/graph"
	"mlcg/internal/par"
)

func TestLeafMatchPairsLeavesOfSameCenter(t *testing.T) {
	// Center 0 with 5 leaves; leaves 1..5 are unmatched, center matched.
	var e []graph.Edge
	for i := int32(1); i <= 5; i++ {
		e = append(e, graph.Edge{U: 0, V: i, W: 1})
	}
	// A second vertex matched to the center so the center is "used".
	e = append(e, graph.Edge{U: 0, V: 6, W: 9})
	g := graph.MustFromEdges(7, e)
	match := make([]int32, 7)
	for i := range match {
		match[i] = unset
	}
	match[0], match[6] = 6, 0
	leafMatch(g, match, 1)
	paired := 0
	for u := int32(1); u <= 5; u++ {
		v := match[u]
		if v == unset {
			continue
		}
		if match[v] != u {
			t.Fatalf("asymmetric match %d <-> %d", u, v)
		}
		if g.Degree(u) != 1 || g.Degree(v) != 1 {
			t.Fatalf("non-leaf matched: %d-%d", u, v)
		}
		paired++
	}
	// 5 leaves: two pairs and one leftover.
	if paired != 4 {
		t.Errorf("paired leaves = %d, want 4", paired)
	}
}

func TestLeafMatchIgnoresMatchedLeaves(t *testing.T) {
	var e []graph.Edge
	for i := int32(1); i <= 4; i++ {
		e = append(e, graph.Edge{U: 0, V: i, W: 1})
	}
	g := graph.MustFromEdges(5, e)
	match := make([]int32, 5)
	for i := range match {
		match[i] = unset
	}
	match[1] = 1 // already a singleton: must not be re-paired
	leafMatch(g, match, 1)
	if match[1] != 1 {
		t.Errorf("matched leaf re-paired: %d", match[1])
	}
}

func TestTwinMatchIdentifiesExactTwins(t *testing.T) {
	// Vertices 3 and 4 have identical neighborhoods {0,1,2}; vertex 5 has
	// {0,1} — not a twin.
	var e []graph.Edge
	for _, v := range []int32{3, 4} {
		for c := int32(0); c < 3; c++ {
			e = append(e, graph.Edge{U: c, V: v, W: 1})
		}
	}
	e = append(e, graph.Edge{U: 0, V: 5, W: 1}, graph.Edge{U: 1, V: 5, W: 1})
	e = append(e, graph.Edge{U: 0, V: 1, W: 1}) // keep base connected
	e = append(e, graph.Edge{U: 1, V: 2, W: 1})
	g := graph.MustFromEdges(6, e)
	match := make([]int32, 6)
	for i := range match {
		match[i] = unset
	}
	// Mark the base vertices matched so only 3,4,5 are candidates.
	match[0], match[1] = 1, 0
	match[2] = 2
	twinMatch(g, match, 1, 64, 7)
	if match[3] != 4 || match[4] != 3 {
		t.Errorf("twins 3,4 not matched: %v", match)
	}
	if match[5] != unset {
		t.Errorf("non-twin 5 matched to %d", match[5])
	}
}

func TestTwinMatchHonorsDegreeCap(t *testing.T) {
	// Twins of degree 3 with cap 2: must not match.
	var e []graph.Edge
	for _, v := range []int32{3, 4} {
		for c := int32(0); c < 3; c++ {
			e = append(e, graph.Edge{U: c, V: v, W: 1})
		}
	}
	e = append(e, graph.Edge{U: 0, V: 1, W: 1})
	g := graph.MustFromEdges(5, e)
	match := make([]int32, 5)
	for i := range match {
		match[i] = unset
	}
	match[0], match[1], match[2] = 1, 0, 2
	twinMatch(g, match, 1, 2, 7)
	if match[3] != unset || match[4] != unset {
		t.Errorf("over-cap twins matched: %v", match)
	}
}

func TestRelativeMatchPairsThroughSharedNeighbor(t *testing.T) {
	// 1 and 2 share neighbor 0 but are not adjacent; both unmatched.
	g := graph.MustFromEdges(3, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 0, V: 2, W: 1}})
	match := []int32{0, unset, unset}
	relativeMatch(g, match, []int32{0, 1, 2}, 1)
	if match[1] != 2 || match[2] != 1 {
		t.Errorf("relatives not matched: %v", match)
	}
}

func TestRelativeMatchNoDoubleClaim(t *testing.T) {
	// Two centers share candidate vertices; every final match must be
	// symmetric and each vertex matched at most once.
	var e []graph.Edge
	for i := int32(2); i < 12; i++ {
		e = append(e, graph.Edge{U: 0, V: i, W: 1})
		e = append(e, graph.Edge{U: 1, V: i, W: 1})
	}
	g := graph.MustFromEdges(12, e)
	match := make([]int32, 12)
	for i := range match {
		match[i] = unset
	}
	match[0], match[1] = 0, 1
	pos := make([]int32, 12)
	for i := range pos {
		pos[i] = int32(i)
	}
	relativeMatch(g, match, pos, 4)
	for u := int32(2); u < 12; u++ {
		if v := match[u]; v != unset && match[v] != u {
			t.Fatalf("asymmetric match %d -> %d -> %d", u, v, match[v])
		}
	}
}

func TestHeavyUnmatchedNeighbors(t *testing.T) {
	// 0-1 weight 5, 0-2 weight 9 (2 matched): H[0] must pick 1.
	g := graph.MustFromEdges(3, []graph.Edge{{U: 0, V: 1, W: 5}, {U: 0, V: 2, W: 9}})
	match := []int32{unset, unset, 2}
	pos := []int32{0, 1, 2}
	h := heavyUnmatchedNeighbors(g, match, pos, 1)
	if h[0] != 1 {
		t.Errorf("H[0] = %d, want 1 (heaviest unmatched)", h[0])
	}
	if h[2] != 2 {
		t.Errorf("matched vertex should self-point, got %d", h[2])
	}
	// All neighbors matched -> self-point.
	match2 := []int32{unset, 1, 2}
	h2 := heavyUnmatchedNeighbors(g, match2, pos, 1)
	if h2[0] != 0 {
		t.Errorf("H[0] = %d, want self", h2[0])
	}
}

func TestAdjacencyHashCollisionFree(t *testing.T) {
	// Distinct small neighborhoods hash distinctly (w.h.p.); identical
	// ones hash identically regardless of storage order.
	g := graph.MustFromEdges(6, []graph.Edge{
		{U: 0, V: 2, W: 1}, {U: 0, V: 3, W: 2},
		{U: 1, V: 3, W: 5}, {U: 1, V: 2, W: 1},
		{U: 4, V: 2, W: 1}, {U: 5, V: 2, W: 1}, {U: 4, V: 5, W: 1},
	})
	var buf twinScratch
	h0 := adjacencyHash(g, 0, &buf, 9)
	h1 := adjacencyHash(g, 1, &buf, 9)
	if h0 != h1 {
		t.Error("identical neighborhoods {2,3} hash differently")
	}
	h4 := adjacencyHash(g, 4, &buf, 9)
	if h4 == h0 {
		t.Error("different neighborhoods collide (improbable)")
	}
}

func TestSameAdjacency(t *testing.T) {
	g := graph.MustFromEdges(5, []graph.Edge{
		{U: 0, V: 2, W: 1}, {U: 0, V: 3, W: 1},
		{U: 1, V: 3, W: 1}, {U: 1, V: 2, W: 1},
		{U: 4, V: 2, W: 1},
	})
	var b1, b2 twinScratch
	if !sameAdjacency(g, 0, 1, &b1, &b2) {
		t.Error("twins not recognized")
	}
	if sameAdjacency(g, 0, 4, &b1, &b2) {
		t.Error("non-twins recognized")
	}
}

func TestPackTranslationInHEC(t *testing.T) {
	// Regression guard for the queue-translation logic in HEC.Map: all
	// vertices map even when many passes are needed on a chain.
	g := increasingChain(300)
	m, err := HEC{MaxPasses: 64}.Map(g, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(g.N()); err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, c := range m.PassMapped {
		total += c
	}
	if total != int64(g.N()) {
		t.Errorf("pass counts %d != n %d", total, g.N())
	}
	_ = par.Workers(0, 1) // keep par import for the test file
}
