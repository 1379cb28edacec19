package graph

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// validateRef is the Validate that checked each entry's reverse with
// EdgeWeight, a scan of the neighbour's row, and a map per vertex for
// duplicates: O(m·Δ). It is kept as the oracle the O(n+m) Validate must
// match, error text included.
func (g *Graph) validateRef() error {
	n := g.N()
	if len(g.Xadj) != n+1 {
		return fmt.Errorf("graph: len(Xadj)=%d, want NumV+1=%d", len(g.Xadj), n+1)
	}
	if g.Xadj[0] != 0 {
		return fmt.Errorf("graph: Xadj[0]=%d, want 0", g.Xadj[0])
	}
	for i := 0; i < n; i++ {
		if g.Xadj[i+1] < g.Xadj[i] {
			return fmt.Errorf("graph: Xadj decreasing at %d", i)
		}
	}
	if int64(len(g.Adj)) != g.Xadj[n] {
		return fmt.Errorf("graph: len(Adj)=%d, want Xadj[n]=%d", len(g.Adj), g.Xadj[n])
	}
	if len(g.Wgt) != len(g.Adj) {
		return fmt.Errorf("graph: len(Wgt)=%d != len(Adj)=%d", len(g.Wgt), len(g.Adj))
	}
	if g.VWgt != nil && len(g.VWgt) != n {
		return fmt.Errorf("graph: len(VWgt)=%d, want %d", len(g.VWgt), n)
	}
	if err := checkVWgt(g.VWgt); err != nil {
		return err
	}
	var total int64
	for u := int32(0); u < g.NumV; u++ {
		adj, wgt := g.Neighbors(u)
		seen := make(map[int32]bool, len(adj))
		for i, v := range adj {
			if v < 0 || v >= g.NumV {
				return fmt.Errorf("graph: vertex %d has out-of-range neighbor %d", u, v)
			}
			if v == u {
				return fmt.Errorf("graph: self-loop at vertex %d", u)
			}
			if seen[v] {
				return fmt.Errorf("graph: duplicate edge {%d,%d}", u, v)
			}
			seen[v] = true
			if wgt[i] <= 0 {
				return fmt.Errorf("graph: non-positive weight %d on edge {%d,%d}", wgt[i], u, v)
			}
			if wgt[i] > math.MaxInt64-total {
				return fmt.Errorf("graph: total edge weight overflows int64 at edge {%d,%d}", u, v)
			}
			total += wgt[i]
			if w2, ok := g.EdgeWeight(v, u); !ok {
				return fmt.Errorf("graph: edge {%d,%d} missing reverse", u, v)
			} else if w2 != wgt[i] {
				return fmt.Errorf("graph: edge {%d,%d} weight %d != reverse %d", u, v, wgt[i], w2)
			}
		}
	}
	return nil
}

// TestValidateMatchesReference corrupts random valid CSRs (out-of-range,
// self-loop and duplicate neighbours, missing reverses, bad, mismatched
// and overflowing weights, shifted offsets) and requires Validate to
// return the reference's verdict and error text on every one.
func TestValidateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rejected := 0
	for iter := 0; iter < 5000; iter++ {
		n := 1 + rng.Intn(10)
		var edges []Edge
		for k := rng.Intn(3 * n); k > 0; k-- {
			edges = append(edges, Edge{rng.Int31n(int32(n)), rng.Int31n(int32(n)), 1 + rng.Int63n(4)})
		}
		g := MustFromEdges(n, edges)
		for c := rng.Intn(4); c > 0 && len(g.Adj) > 0; c-- {
			i, j := rng.Intn(len(g.Adj)), rng.Intn(len(g.Adj))
			switch rng.Intn(7) {
			case 0:
				g.Adj[i] = rng.Int31n(int32(n)+2) - 1
			case 1:
				g.Adj[i] = g.Adj[j]
			case 2:
				g.Adj[i], g.Adj[j] = g.Adj[j], g.Adj[i]
			case 3:
				g.Wgt[i] = rng.Int63n(7) - 2
			case 4:
				g.Wgt[i] = math.MaxInt64 - rng.Int63n(3)
			case 5:
				g.Wgt[i], g.Wgt[j] = g.Wgt[j], g.Wgt[i]
			case 6:
				g.Xadj[1+rng.Intn(n)] += int64(rng.Intn(3) - 1)
			}
		}
		want, got := g.validateRef(), g.Validate()
		if errText(got) != errText(want) {
			t.Fatalf("iter %d: Validate = %q, reference %q\nXadj=%v Adj=%v Wgt=%v", iter, errText(got), errText(want), g.Xadj, g.Adj, g.Wgt)
		}
		if want != nil {
			rejected++
		}
	}
	if rejected < 1000 {
		t.Errorf("only %d of 5000 corrupted graphs were invalid; the corruptions are too weak", rejected)
	}
}

// TestReadBinaryHugeStar sends a star with 2^20 leaves through ReadBinary.
// Its hub has degree 2^20, so an O(m·Δ) reverse check would scan the
// hub's row once per leaf, about 10^12 steps; the linear check takes well
// under a second.
func TestReadBinaryHugeStar(t *testing.T) {
	const leaves = 1 << 20
	edges := make([]Edge, leaves)
	for i := range edges {
		edges[i] = Edge{0, int32(i + 1), 1}
	}
	g := MustFromEdges(leaves+1, edges)
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	h, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !sameCSR(g, h) {
		t.Fatal("star changed in the binary round trip")
	}
}
