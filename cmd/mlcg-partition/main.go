// mlcg-partition partitions a graph with the multilevel FM or spectral
// bisection pipeline, or into k parts by recursive FM bisection, and
// reports edge cut, balance, and phase timings.
//
// Usage:
//
//	mlcg-partition -gen trimesh -method fm
//	mlcg-partition -in graph.txt -method spectral -mapper hem
//	mlcg-partition -gen grid2d -k 8
//	mlcg-partition -in graph.txt -method fm -out parts.txt
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"

	"mlcg/internal/cli"
	"mlcg/internal/coarsen"
	"mlcg/internal/partition"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("mlcg-partition", flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("in", "", "input graph file")
	format := fs.String("format", "edgelist", "input format: "+cli.Formats())
	genName := fs.String("gen", "", "generate input instead: "+cli.Generators())
	method := fs.String("method", "fm", "refinement: fm or spectral (k > 2 takes fm only)")
	k := fs.Int("k", 2, "number of parts, from 2 to the vertex count (k > 2 uses recursive FM bisection)")
	mapper := fs.String("mapper", "hec", "coarse mapping: "+cli.Mappers())
	construct := fs.String("construct", "auto", "construction policy: "+cli.ConstructPolicies())
	seed := fs.Uint64("seed", 20210517, "random seed")
	workers := fs.Int("workers", 0, "parallelism (0 = GOMAXPROCS)")
	out := fs.String("out", "", "write the part vector (one id per line) to this file")
	tracePath := fs.String("trace", "", "write a Chrome trace_event JSON of the partitioning run to this file")
	metrics := fs.Bool("metrics", false, "print the kernel metrics dump after the run")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	fail := func(err error) int {
		fmt.Fprintln(stderr, "mlcg-partition:", err)
		return 1
	}

	stopObs, err := cli.StartObs(*tracePath, *metrics, stdout)
	if err != nil {
		return fail(err)
	}
	defer func() {
		if oerr := stopObs(); oerr != nil {
			fmt.Fprintln(stderr, "mlcg-partition:", oerr)
			if code == 0 {
				code = 1
			}
		}
	}()

	seeds := cli.DeriveSeeds(*seed)
	g, err := cli.LoadOrGenerate(*in, *format, *genName, seeds.Graph)
	if err != nil {
		return fail(err)
	}
	// KWayFM allocates per part, and parts beyond the vertex count are
	// empty.
	if *k < 2 || *k > g.N() {
		return fail(fmt.Errorf("-k %d out of range: want 2 <= k <= %d, the vertex count", *k, g.N()))
	}
	m, err := coarsen.MapperByName(*mapper)
	if err != nil {
		return fail(err)
	}
	b, err := coarsen.BuilderByName(*construct)
	if err != nil {
		return fail(err)
	}
	c := coarsen.Coarsener{Mapper: m, Builder: b, Seed: seeds.Coarsen, Workers: *workers}

	s := g.ComputeStats()
	fmt.Fprintf(stdout, "input: n=%d m=%d skew=%.1f\n", s.N, s.M, s.Skew)

	if *k > 2 {
		if *method != "fm" {
			return fail(fmt.Errorf("-k %d: k-way partitioning takes -method fm only (got %q)", *k, *method))
		}
		kr, err := partition.KWayFM(g, *k, partition.KWayOptions{
			Mapper: m, Builder: b, Seed: seeds.Partition, Workers: *workers,
		})
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "k=%d edge cut: %d imbalance: %.3f (%.3fs)\n",
			*k, kr.Cut, partition.KWayImbalance(g, kr.Part, *k), kr.Elapsed.Seconds())
		fmt.Fprintf(stdout, "part weights: %v\n", kr.Weights)
		if *out != "" {
			if err := writeParts(*out, kr.Part); err != nil {
				return fail(err)
			}
			fmt.Fprintf(stdout, "part vector written to %s\n", *out)
		}
		return 0
	}

	var res *partition.Result
	switch *method {
	case "fm":
		fb := &partition.FMBisector{Coarsener: c, Seed: seeds.Partition}
		res, err = fb.Bisect(g)
	case "spectral":
		sb := &partition.SpectralBisector{
			Coarsener: c,
			Fiedler:   partition.FiedlerOptions{Workers: *workers},
			Seed:      seeds.Partition,
		}
		res, err = sb.Bisect(g)
	default:
		err = fmt.Errorf("unknown method %q (want fm or spectral)", *method)
	}
	if err != nil {
		return fail(err)
	}

	fmt.Fprintf(stdout, "method=%s mapper=%s builder=%s\n", *method, *mapper, b.Name())
	fmt.Fprintf(stdout, "edge cut: %d\n", res.Cut)
	fmt.Fprintf(stdout, "side weights: %d / %d (imbalance %d)\n",
		res.Weights[0], res.Weights[1], partition.Imbalance(g, res.Part))
	fmt.Fprintf(stdout, "levels=%d coarsen=%.3fs init=%.3fs refine=%.3fs total=%.3fs\n",
		res.Levels, res.CoarsenTime.Seconds(), res.InitTime.Seconds(),
		res.RefineTime.Seconds(), res.TotalTime().Seconds())

	if *out != "" {
		if err := writeParts(*out, res.Part); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "part vector written to %s\n", *out)
	}
	return 0
}

func writeParts(path string, part []int32) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, p := range part {
		fmt.Fprintln(w, p)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
