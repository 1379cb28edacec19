// Package graph provides the compressed sparse row (CSR) graph substrate
// the paper's algorithms operate on: undirected weighted graphs with no
// self-loops or parallel edges, positive integer edge weights, and vertex
// weights that track aggregate sizes across coarsening levels.
package graph

import (
	"fmt"
	"math"

	"mlcg/internal/obs"
	"mlcg/internal/par"
)

// Graph is an undirected graph in CSR form. Every undirected edge {u, v}
// is stored twice: once in u's adjacency range and once in v's. Invariants
// (checked by Validate):
//
//   - len(Xadj) == NumV+1, Xadj non-decreasing, Xadj[0] == 0
//   - len(Adj) == len(Wgt) == Xadj[NumV] == 2m
//   - no self-loops, no duplicate neighbors within a vertex's range
//   - symmetric: v in Adj(u) with weight w  <=>  u in Adj(v) with weight w
//   - all edge weights positive, and their directed total Σ Wgt fits in
//     int64, so every weight sum derived from the graph (coarse edge
//     weights, cuts, FM gains) is exact
//
// VWgt holds per-vertex weights (the number of fine vertices an aggregate
// represents). A nil VWgt means "all ones", which is how freshly generated
// graphs start; coarsening materializes it.
type Graph struct {
	NumV int32
	Xadj []int64 // vertex offsets into Adj/Wgt, len NumV+1
	Adj  []int32 // neighbor ids, len 2m
	Wgt  []int64 // edge weights parallel to Adj
	VWgt []int64 // vertex weights, nil means all 1
}

// N returns the number of vertices as an int for loop convenience.
func (g *Graph) N() int { return int(g.NumV) }

// M returns the number of undirected edges.
func (g *Graph) M() int64 { return g.Xadj[g.NumV] / 2 }

// Size returns 2m+n, the paper's graph-size normalization (Table I order,
// Fig 3 performance rate).
func (g *Graph) Size() int64 { return g.Xadj[g.NumV] + int64(g.NumV) }

// Degree returns the number of neighbors of u.
func (g *Graph) Degree(u int32) int64 { return g.Xadj[u+1] - g.Xadj[u] }

// Neighbors returns the adjacency and weight slices of u. The slices alias
// the graph's storage and must not be modified.
func (g *Graph) Neighbors(u int32) ([]int32, []int64) {
	lo, hi := g.Xadj[u], g.Xadj[u+1]
	return g.Adj[lo:hi], g.Wgt[lo:hi]
}

// VertexWeight returns the weight of u, treating nil VWgt as all ones.
func (g *Graph) VertexWeight(u int32) int64 {
	if g.VWgt == nil {
		return 1
	}
	return g.VWgt[u]
}

// TotalVertexWeight returns the sum of all vertex weights.
func (g *Graph) TotalVertexWeight() int64 {
	if g.VWgt == nil {
		return int64(g.NumV)
	}
	var sum int64
	for _, w := range g.VWgt {
		sum += w
	}
	return sum
}

// TotalEdgeWeight returns the sum of weights over undirected edges (each
// edge counted once).
func (g *Graph) TotalEdgeWeight() int64 {
	var sum int64
	for _, w := range g.Wgt {
		sum += w
	}
	return sum / 2
}

// MaxDegree returns the maximum vertex degree, 0 for an empty graph.
func (g *Graph) MaxDegree() int64 {
	return par.MaxInt64(g.N(), par.Exec{Span: obs.Ambient()}, 0, func(i int) int64 {
		return g.Xadj[i+1] - g.Xadj[i]
	})
}

// AvgDegree returns 2m/n, 0 for an empty graph.
func (g *Graph) AvgDegree() float64 {
	if g.NumV == 0 {
		return 0
	}
	return float64(g.Xadj[g.NumV]) / float64(g.NumV)
}

// DegreeSkew returns Δ/(2m/n), the paper's regular-vs-skewed criterion
// (Table I). Graphs with skew above ~10 behave like the paper's
// "irregular" group.
func (g *Graph) DegreeSkew() float64 {
	ad := g.AvgDegree()
	if ad == 0 {
		return 0
	}
	return float64(g.MaxDegree()) / ad
}

// HasEdge reports whether {u, v} is an edge, by scanning u's (typically
// short) adjacency list.
func (g *Graph) HasEdge(u, v int32) bool {
	adj, _ := g.Neighbors(u)
	for _, x := range adj {
		if x == v {
			return true
		}
	}
	return false
}

// EdgeWeight returns the weight of {u, v} and whether the edge exists.
func (g *Graph) EdgeWeight(u, v int32) (int64, bool) {
	adj, wgt := g.Neighbors(u)
	for i, x := range adj {
		if x == v {
			return wgt[i], true
		}
	}
	return 0, false
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	out := &Graph{
		NumV: g.NumV,
		Xadj: append([]int64(nil), g.Xadj...),
		Adj:  append([]int32(nil), g.Adj...),
		Wgt:  append([]int64(nil), g.Wgt...),
	}
	if g.VWgt != nil {
		out.VWgt = append([]int64(nil), g.VWgt...)
	}
	return out
}

// MaterializeVWgt ensures VWgt is non-nil (all ones if it was nil).
func (g *Graph) MaterializeVWgt() {
	if g.VWgt == nil {
		g.VWgt = make([]int64, g.NumV)
		for i := range g.VWgt {
			g.VWgt[i] = 1
		}
	}
}

// Validate checks every CSR invariant and returns a descriptive error for
// the first violation: array shapes, then vertex weights (positive, total
// within int64), then entries in row order. It runs in O(n+m):
// duplicates are found with a stamp array, and every entry's reverse is
// looked up through a transpose built by a counting scatter. That scratch
// is about 20n + 12m bytes while it runs, and none for an edgeless graph.
func (g *Graph) Validate() error {
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
	if len(g.Adj) == 0 {
		return nil // no entries to check, so no scratch to allocate
	}
	// Entry checks in row order; bad is the first entry that fails one.
	mark := make([]int32, n) // mark[v] == u+1: v already seen in row u
	bad := int64(len(g.Adj))
	var badErr error
	var total int64
rows:
	for u := int32(0); u < g.NumV; u++ {
		for i := g.Xadj[u]; i < g.Xadj[u+1]; i++ {
			v, w := g.Adj[i], g.Wgt[i]
			switch {
			case v < 0 || v >= g.NumV:
				badErr = fmt.Errorf("graph: vertex %d has out-of-range neighbor %d", u, v)
			case v == u:
				badErr = fmt.Errorf("graph: self-loop at vertex %d", u)
			case mark[v] == u+1:
				badErr = fmt.Errorf("graph: duplicate edge {%d,%d}", u, v)
			case w <= 0:
				badErr = fmt.Errorf("graph: non-positive weight %d on edge {%d,%d}", w, u, v)
			case w > math.MaxInt64-total:
				badErr = fmt.Errorf("graph: total edge weight overflows int64 at edge {%d,%d}", u, v)
			}
			if badErr != nil {
				bad = i
				break rows
			}
			mark[v] = u + 1
			total += w
		}
	}
	if err := g.checkReverses(bad, mark); err != nil {
		return err
	}
	return badErr
}

// checkVWgt applies the edge-weight rule to vertex weights: every weight
// is positive and the running total stays within int64, so part and
// aggregate weight sums cannot wrap.
func checkVWgt(vw []int64) error {
	var total int64
	for u, w := range vw {
		if w <= 0 {
			return fmt.Errorf("graph: non-positive weight %d on vertex %d", w, u)
		}
		if w > math.MaxInt64-total {
			return fmt.Errorf("graph: total vertex weight overflows int64 at vertex %d", u)
		}
		total += w
	}
	return nil
}

// checkReverses reports the first entry before index bad whose reverse
// entry is missing or has another weight, where the reverse of u→v is the
// first u in row v. The entries before bad are in range, so they can be
// transposed: a counting scatter lists, per target v, each entry's source
// and index in row order. mark is scratch of n entries.
func (g *Graph) checkReverses(bad int64, mark []int32) error {
	if bad == 0 {
		return nil
	}
	n := g.N()
	tx := make([]int64, n+2) // counts at tx[v+2], then buildSeq's cursor scheme
	for _, v := range g.Adj[:bad] {
		tx[int(v)+2]++
	}
	for i := 2; i < len(tx); i++ {
		tx[i] += tx[i-1]
	}
	src := make([]int32, bad)
	at := make([]int64, bad)
	for u := int32(0); u < g.NumV && g.Xadj[u] < bad; u++ {
		for i := g.Xadj[u]; i < min(g.Xadj[u+1], bad); i++ {
			v := g.Adj[i]
			l := tx[v+1]
			tx[v+1]++
			src[l], at[l] = u, i
		}
	}
	clear(mark)
	first := make([]int64, n) // weight of the first x in row v, when mark[x] == v+1
	var err error
	for v := int32(0); v < g.NumV; v++ {
		lo, hi := tx[v], tx[v+1]
		if lo == hi || at[lo] >= bad {
			continue
		}
		adj, wgt := g.Neighbors(v)
		for i, x := range adj {
			if x >= 0 && x < g.NumV && mark[x] != v+1 {
				mark[x], first[x] = v+1, wgt[i]
			}
		}
		// Entries of a transpose row are in index order, so the first
		// failure in it is the row's earliest.
		for k := lo; k < hi && at[k] < bad; k++ {
			u, w := src[k], g.Wgt[at[k]]
			if mark[u] != v+1 {
				bad, err = at[k], fmt.Errorf("graph: edge {%d,%d} missing reverse", u, v)
			} else if first[u] != w {
				bad, err = at[k], fmt.Errorf("graph: edge {%d,%d} weight %d != reverse %d", u, v, w, first[u])
			} else {
				continue
			}
			break
		}
	}
	return err
}

// Stats is a summary used by the Table I analog.
type Stats struct {
	N        int64
	M        int64
	MaxDeg   int64
	AvgDeg   float64
	Skew     float64 // Δ/(2m/n)
	Size     int64   // 2m+n
	TotalEW  int64
	TotalVW  int64
	Weighted bool // any edge weight != 1
}

// ComputeStats returns the summary statistics of g.
func (g *Graph) ComputeStats() Stats {
	weighted := false
	for _, w := range g.Wgt {
		if w != 1 {
			weighted = true
			break
		}
	}
	return Stats{
		N:        int64(g.NumV),
		M:        g.M(),
		MaxDeg:   g.MaxDegree(),
		AvgDeg:   g.AvgDegree(),
		Skew:     g.DegreeSkew(),
		Size:     g.Size(),
		TotalEW:  g.TotalEdgeWeight(),
		TotalVW:  g.TotalVertexWeight(),
		Weighted: weighted,
	}
}
