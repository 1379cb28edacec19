// Spectral node embedding: the paper motivates coarsening with multilevel
// representation-learning systems (HARP, GOSH). This example computes a
// d-dimensional spectral embedding of a community graph through the
// multilevel pipeline (coarsen with GOSH-style aggregation, embed the
// coarsest graph, interpolate and refine), then evaluates it with a link
// reconstruction test: edges should be closer in embedding space than
// random non-edges.
package main

import (
	"fmt"
	"log"
	"math"

	"mlcg"
	"mlcg/internal/coarsen"
	"mlcg/internal/par"
	"mlcg/internal/partition"
)

const dim = 4

func main() {
	// Two-scale community graph: 30 communities of 24 vertices.
	g := communities(30, 24, 3)
	fmt.Printf("graph: n=%d m=%d\n", g.N(), g.M())

	// Multilevel spectral embedding: coarsen with the GOSH mapper (the
	// embedding-oriented aggregation), solve on the coarsest graph,
	// interpolate + reiterate at every finer level.
	c := coarsen.Coarsener{Mapper: coarsen.GOSH{}, Builder: coarsen.BuildSort{}, Seed: 7}
	h, err := c.Run(g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("hierarchy: %d levels, coarsest n=%d\n", h.Levels(), h.Coarsest().N())

	fopt := partition.FiedlerOptions{MaxIter: 600}
	xs, _ := coarsen.Uncoarsen(h, h.Levels(), nil, "embedding", par.Exec{},
		func(_ int, lg *mlcg.Graph, xs [][]float64, _ par.Exec) ([][]float64, error) {
			xs, _ = partition.FiedlerK(lg, dim, xs, 99, fopt)
			return xs, nil
		},
		func(xs [][]float64, m []int32, ex par.Exec) [][]float64 {
			fine := make([][]float64, len(xs))
			for j, x := range xs {
				fine[j] = coarsen.Project(x, m, ex)
			}
			return fine
		})

	emb := make([][]float64, g.N())
	for u := range emb {
		emb[u] = make([]float64, dim)
		for j := 0; j < dim; j++ {
			emb[u][j] = xs[j][u]
		}
	}

	// Link reconstruction AUC: sample an edge and a non-edge; count how
	// often the edge pair is closer.
	rng := par.NewRNG(123)
	n := g.N()
	wins, trials := 0, 20000
	for t := 0; t < trials; t++ {
		// Random edge.
		u := int32(rng.Intn(n))
		adj, _ := g.Neighbors(u)
		for len(adj) == 0 {
			u = int32(rng.Intn(n))
			adj, _ = g.Neighbors(u)
		}
		v := adj[rng.Intn(len(adj))]
		// Random non-edge.
		var a, b int32
		for {
			a, b = int32(rng.Intn(n)), int32(rng.Intn(n))
			if a != b && !g.HasEdge(a, b) {
				break
			}
		}
		if dist(emb[u], emb[v]) < dist(emb[a], emb[b]) {
			wins++
		}
	}
	fmt.Printf("link-reconstruction AUC over %d samples: %.3f (0.5 = random)\n",
		trials, float64(wins)/float64(trials))
}

func dist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// communities builds the two-scale benchmark graph.
func communities(k, size int, seed uint64) *mlcg.Graph {
	rng := par.NewRNG(seed)
	n := k * size
	var edges []mlcg.Edge
	for c := 0; c < k; c++ {
		base := c * size
		for i := 0; i < size; i++ {
			for tries := 0; tries < 6; tries++ {
				j := rng.Intn(size)
				if j != i {
					edges = append(edges, mlcg.Edge{U: int32(base + i), V: int32(base + j), W: 3})
				}
			}
		}
		edges = append(edges, mlcg.Edge{
			U: int32(base + rng.Intn(size)),
			V: int32(((c+1)%k)*size + rng.Intn(size)), W: 1,
		})
	}
	g, err := mlcg.NewGraph(n, edges)
	if err != nil {
		log.Fatal(err)
	}
	return g
}
