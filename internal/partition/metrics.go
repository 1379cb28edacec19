// Package partition implements the paper's case study: multilevel graph
// bisection with two refinement methods — spectral (power-iteration Fiedler
// vector, Section III.C) and Fiduccia–Mattheyses — plus the greedy graph
// growing initial partitioner and Metis-style baseline pipelines assembled
// from the same pieces.
package partition

import (
	"fmt"

	"mlcg/internal/graph"
	"mlcg/internal/par"
)

// EdgeCut returns the total weight of edges crossing the bisection
// (each undirected edge counted once).
func EdgeCut(g *graph.Graph, part []int32) int64 {
	n := g.N()
	return par.SumInt64(n, 0, func(i int) int64 {
		u := int32(i)
		adj, wgt := g.Neighbors(u)
		var c int64
		for k, v := range adj {
			if u < v && part[u] != part[v] {
				c += wgt[k]
			}
		}
		return c
	})
}

// SideWeights returns the total vertex weight on each side.
func SideWeights(g *graph.Graph, part []int32) [2]int64 {
	var w [2]int64
	for u := 0; u < g.N(); u++ {
		w[part[u]] += g.VertexWeight(int32(u))
	}
	return w
}

// Imbalance returns |w0 - w1|.
func Imbalance(g *graph.Graph, part []int32) int64 {
	w := SideWeights(g, part)
	d := w[0] - w[1]
	if d < 0 {
		d = -d
	}
	return d
}

// CheckBisection validates that part is a two-way partition of g with
// imbalance at most tol (tol <= 0 means the heaviest vertex weight, the
// tightest achievable bound in general).
func CheckBisection(g *graph.Graph, part []int32, tol int64) error {
	if len(part) != g.N() {
		return fmt.Errorf("partition: part covers %d vertices, want %d", len(part), g.N())
	}
	for u, p := range part {
		if p != 0 && p != 1 {
			return fmt.Errorf("partition: vertex %d assigned to part %d", u, p)
		}
	}
	if tol <= 0 {
		tol = 1
		for u := int32(0); u < g.NumV; u++ {
			if w := g.VertexWeight(u); w > tol {
				tol = w
			}
		}
	}
	if d := Imbalance(g, part); d > tol {
		return fmt.Errorf("partition: imbalance %d exceeds tolerance %d", d, tol)
	}
	return nil
}
