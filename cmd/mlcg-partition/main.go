// mlcg-partition partitions a graph with the multilevel FM or spectral
// pipeline and reports edge cut, balance, and phase timings.
//
// Usage:
//
//	mlcg-partition -gen trimesh -method fm
//	mlcg-partition -in graph.txt -method spectral -mapper hem
//	mlcg-partition -gen grid2d -k 8 -pairwise 2
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
	"mlcg/internal/graph"
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
	method := fs.String("method", "fm", "refinement: fm or spectral")
	k := fs.Int("k", 2, "number of parts (k > 2 uses recursive bisection)")
	pairwise := fs.Int("pairwise", 0, "pairwise k-way refinement rounds (k > 2)")
	order := fs.String("order", "", "compute an elimination ordering instead: nd (nested dissection) or rcm")
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

	if *order != "" {
		var perm []int32
		switch *order {
		case "nd":
			perm, err = partition.NestedDissection(g, partition.NDOptions{
				Mapper: m, Builder: b, Seed: seeds.Partition, Workers: *workers,
			})
		case "rcm":
			perm, err = g.RCM()
		default:
			err = fmt.Errorf("unknown ordering %q (want nd or rcm)", *order)
		}
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "%s ordering: envelope %d (natural order: %d)\n",
			*order, partition.EnvelopeSize(g, perm), naturalEnvelope(g))
		if *out != "" {
			if err := writeParts(*out, perm); err != nil {
				return fail(err)
			}
			fmt.Fprintf(stdout, "permutation written to %s\n", *out)
		}
		return 0
	}

	if *k > 2 {
		opt := partition.KWayOptions{
			Mapper: m, Builder: b, Seed: seeds.Partition, Workers: *workers,
			PairwiseRounds: *pairwise,
		}
		var kr *partition.KWayResult
		switch *method {
		case "fm":
			kr, err = partition.KWayFM(g, *k, opt)
		case "spectral":
			kr, err = partition.KWaySpectral(g, *k, opt, partition.FiedlerOptions{Workers: *workers})
		default:
			err = fmt.Errorf("unknown method %q (want fm or spectral)", *method)
		}
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

func naturalEnvelope(g *graph.Graph) int64 {
	perm := make([]int32, g.N())
	for i := range perm {
		perm[i] = int32(i)
	}
	return partition.EnvelopeSize(g, perm)
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
