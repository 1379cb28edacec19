// Hierarchy reuse: multilevel coarsening is the expensive shared prefix of
// many analyses. This example builds a hierarchy once, serializes it,
// reloads it, and reuses the single hierarchy for three different
// downstream solves — bisection seeds with different random starts — the
// way a production pipeline amortizes coarsening across runs.
package main

import (
	"bytes"
	"fmt"
	"log"

	"mlcg/internal/coarsen"
	"mlcg/internal/gen"
	"mlcg/internal/graph"
	"mlcg/internal/hierfmt"
	"mlcg/internal/par"
	"mlcg/internal/partition"
)

func main() {
	g := gen.TriMesh(120, 120, 3)
	fmt.Printf("graph: n=%d m=%d\n", g.N(), g.M())

	// Coarsen once.
	c := &coarsen.Coarsener{Mapper: coarsen.HEC{}, Builder: coarsen.BuildSort{}, Seed: 11}
	h, err := c.Run(g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("hierarchy: %d levels (%.3fs)\n", h.Levels(), h.TotalTime().Seconds())

	// Serialize and reload (a file in real use; a buffer here). The
	// container format is specified in docs/FORMAT.md.
	var buf bytes.Buffer
	if err := hierfmt.Save(&buf, h, hierfmt.SaveOptions{CompressAdj: true}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("serialized hierarchy: %d bytes\n", buf.Len())
	h2, _, err := hierfmt.Load(buf.Bytes(), hierfmt.LoadOptions{})
	if err != nil {
		log.Fatal(err)
	}

	// Reuse the reloaded hierarchy: initial partitions with different
	// seeds on the coarsest graph, each refined down the same hierarchy.
	best := int64(-1)
	for seed := uint64(0); seed < 3; seed++ {
		part, _ := coarsen.Uncoarsen(h2, h2.Levels(), nil, "fm", par.Exec{},
			func(_ int, lg *graph.Graph, part []int32, _ par.Exec) ([]int32, error) {
				if part == nil {
					part = partition.GreedyGrow(lg, seed, 4)
				}
				partition.RefineFM(lg, part, partition.FMOptions{})
				return part, nil
			}, coarsen.Project[int32])
		cut := partition.EdgeCut(g, part)
		fmt.Printf("seed %d: cut %d\n", seed, cut)
		if best < 0 || cut < best {
			best = cut
		}
	}
	fmt.Printf("best of 3 seeds: %d\n", best)

	// The flattened mapping gives the direct fine-to-coarsest contraction.
	flat := h2.Flatten()
	fmt.Printf("flattened mapping: %d fine -> %d coarse vertices\n", len(flat.M), flat.NC)
}
