// Edge classes (Fig 2 of the paper): replay sequential HEC over the heavy
// edge set of a small weighted graph, label every heavy edge as create,
// inherit, or skip, and dump DOT files of the fine graph colored by
// aggregate — the exact content of the paper's Fig 1/Fig 2 illustration.
package main

import (
	"fmt"
	"log"
	"os"

	"mlcg/internal/bench"
	"mlcg/internal/coarsen"
	"mlcg/internal/par"
)

func main() {
	g := bench.Fig1Demo()
	fmt.Printf("demo graph: n=%d m=%d\n", g.N(), g.M())

	cls := coarsen.ClassifyHeavyEdges(g, 20210517)
	fmt.Println("heavy-edge classification (sequential HEC replay):")
	for u := int32(0); u < g.NumV; u++ {
		fmt.Printf("  <%2d -> %2d>  %s\n", u, cls.Heavy[u], cls.Class[u])
	}
	fmt.Printf("totals: create=%d inherit=%d skip=%d -> %d coarse vertices\n",
		cls.Counts[coarsen.CreateEdge], cls.Counts[coarsen.InheritEdge],
		cls.Counts[coarsen.SkipEdge], cls.NC)

	// One level of every mapping method on the same graph (Fig 1).
	fmt.Println("\none level of coarsening per method:")
	for _, name := range coarsen.MapperNames() {
		mapper, err := coarsen.MapperByName(name)
		if err != nil {
			log.Fatal(err)
		}
		m, err := mapper.Map(g, 20210517, par.Exec{P: 1})
		if err != nil {
			log.Fatal(err)
		}
		cg, err := coarsen.BuildSort{}.Build(g, m, par.Exec{P: 1})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-8s nc=%-3d coarse m=%-3d\n", name, m.NC, cg.M())

		f, err := os.Create("fig1-" + name + ".dot")
		if err != nil {
			log.Fatal(err)
		}
		if err := g.WriteDOT(f, name, m.M); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("\nDOT files fig1-<method>.dot written (render with graphviz)")
}
