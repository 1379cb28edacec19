package mlcg_test

import (
	"fmt"

	"mlcg"
)

// ExampleCoarsen shows the one-call multilevel coarsening helper.
func ExampleCoarsen() {
	g := mlcg.Grid2D(40, 40) // 1600-vertex mesh
	h, err := mlcg.Coarsen(g, "hecseq", "sort", mlcg.CoarsenOptions{Seed: 1, Workers: 1})
	if err != nil {
		panic(err)
	}
	fmt.Println("coarsest below cutoff:", h.Coarsest().N() <= 50)
	fmt.Println("vertex weight conserved:", h.Coarsest().TotalVertexWeight() == int64(g.N()))
	// Output:
	// coarsest below cutoff: true
	// vertex weight conserved: true
}

// ExampleFMBisect shows multilevel FM bisection.
func ExampleFMBisect() {
	g := mlcg.Grid2D(30, 30)
	res, err := mlcg.FMBisect(g, mlcg.BisectOptions{Seed: 7, Workers: 1})
	if err != nil {
		panic(err)
	}
	fmt.Println("balanced:", res.Weights[0] == res.Weights[1])
	fmt.Println("cut positive:", res.Cut > 0)
	// Output:
	// balanced: true
	// cut positive: true
}

// ExampleNewGraph builds a graph from an edge list and inspects it.
func ExampleNewGraph() {
	g, err := mlcg.NewGraph(4, []mlcg.Edge{
		{U: 0, V: 1, W: 2}, {U: 1, V: 2, W: 3}, {U: 2, V: 3, W: 1}, {U: 3, V: 0, W: 1},
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("n =", g.N(), "m =", g.M())
	fmt.Println("total edge weight =", g.TotalEdgeWeight())
	// Output:
	// n = 4 m = 4
	// total edge weight = 7
}

// ExampleKWayPartition splits a mesh into four balanced parts.
func ExampleKWayPartition() {
	g := mlcg.Grid2D(20, 20)
	res, err := mlcg.KWayPartition(g, 4, mlcg.BisectOptions{Seed: 5, Workers: 1})
	if err != nil {
		panic(err)
	}
	fmt.Println("parts:", len(res.Weights))
	balanced := true
	for _, w := range res.Weights {
		if w != 100 {
			balanced = false
		}
	}
	fmt.Println("perfectly balanced:", balanced)
	// Output:
	// parts: 4
	// perfectly balanced: true
}

// ExampleMapperNames lists the registered coarsening algorithms.
func ExampleMapperNames() {
	for _, name := range mlcg.MapperNames() {
		fmt.Println(name)
	}
	// Output:
	// hec
	// hecseq
	// hec2
	// hec3
	// hem
	// hemseq
	// twohop
	// mis2
	// mis2fast
	// gosh
	// goshhec
}
