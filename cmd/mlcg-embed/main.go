// mlcg-embed trains node embeddings through the coarsening hierarchy (the
// GOSH workload): SGD on the coarsest graph, projection down the level
// maps, and per-level refinement. Embeddings save to the .mlcgemb sidecar
// format and can be evaluated with the built-in link-prediction harness.
//
// Usage:
//
//	mlcg-embed -gen rgg -eval                      # train + AUC report
//	mlcg-embed -in graph.txt -dim 64 -out e.mlcgemb
//	mlcg-embed -gen rgg -flat -eval                # single-level baseline
//	mlcg-embed -in g.txt -load e.mlcgemb -eval     # evaluate a saved embedding
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"mlcg/internal/cli"
	"mlcg/internal/coarsen"
	"mlcg/internal/embed"
	"mlcg/internal/graph"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mlcg-embed", flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("in", "", "input graph file")
	format := fs.String("format", "edgelist", "input format: "+cli.Formats())
	genName := fs.String("gen", "", "generate input instead: "+cli.Generators())
	mapper := fs.String("mapper", "gosh", "mapping algorithm for the hierarchy: "+cli.Mappers())
	construct := fs.String("construct", "auto", "construction policy: "+cli.ConstructPolicies())
	cutoff := fs.Int("cutoff", 50, "coarsening cutoff")
	seed := fs.Uint64("seed", 20210517, "random seed (drives generation, coarsening, training, and eval split)")
	workers := fs.Int("workers", 0, "parallelism (0 = GOMAXPROCS)")
	dim := fs.Int("dim", 32, "embedding dimensionality")
	epochs := fs.Int("epochs", 32, "epochs at the coarsest level (finer levels decay geometrically)")
	negatives := fs.Int("negatives", 5, "negative samples per positive edge")
	lr := fs.Float64("lr", 0.25, "initial learning rate at the coarsest level")
	flat := fs.Bool("flat", false, "train single-level on the input graph (equal total epoch budget) instead of multilevel")
	eval := fs.Bool("eval", false, "hold out 10% of edges, train on the rest, report link-prediction AUC")
	out := fs.String("out", "", "write the embedding sidecar ("+embed.FileExt+") to this file")
	load := fs.String("load", "", "load an embedding sidecar instead of training; combine with -eval")
	tracePath := fs.String("trace", "", "write a Chrome trace_event JSON of the run to this file")
	metrics := fs.Bool("metrics", false, "print the kernel metrics dump after the run")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile (after the run) to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	fail := func(err error) int {
		fmt.Fprintln(stderr, "mlcg-embed:", err)
		return 1
	}
	seeds := cli.DeriveSeeds(*seed)
	g, err := cli.LoadOrGenerate(*in, *format, *genName, seeds.Graph)
	if err != nil {
		return fail(err)
	}
	s := g.ComputeStats()
	fmt.Fprintf(stdout, "input: n=%d m=%d skew=%.1f\n", s.N, s.M, s.Skew)

	// The evaluation split replaces the training graph: held-out edges must
	// be invisible to training, whether we train here or load a sidecar.
	var sp *embed.EvalSplit
	train := g
	if *eval {
		sp, err = embed.SplitForEval(g, 0.1, seeds.Eval)
		if err != nil {
			return fail(err)
		}
		train = sp.Train
		fmt.Fprintf(stdout, "eval split: %d held-out edges, %d training edges\n", len(sp.PosU), train.M())
	}

	var e *embed.Embedding
	if *load != "" {
		var trainedSeed uint64
		e, trainedSeed, err = embed.LoadFile(*load)
		if err != nil {
			return fail(err)
		}
		if e.N != g.NumV {
			return fail(fmt.Errorf("embedding has %d rows but the graph has %d vertices", e.N, g.NumV))
		}
		fmt.Fprintf(stdout, "loaded %s: n=%d dim=%d (trained with seed %d)\n", *load, e.N, e.Dim, trainedSeed)
	} else {
		stopProfiles, err := cli.StartProfiles(*cpuProfile, *memProfile)
		if err != nil {
			return fail(err)
		}
		stopObs, err := cli.StartObs(*tracePath, *metrics, stdout)
		if err != nil {
			return fail(err)
		}
		res, terr := trainEmbedding(train, *mapper, *construct, *cutoff, *flat, embed.Options{
			Dim: *dim, Epochs: *epochs, Negatives: *negatives, LR: *lr,
			Seed: seeds.Embed, Workers: *workers,
		}, seeds.Coarsen, stdout)
		if perr := stopProfiles(); perr != nil {
			return fail(perr)
		}
		if oerr := stopObs(); oerr != nil {
			return fail(oerr)
		}
		if terr != nil {
			return fail(terr)
		}
		if *tracePath != "" {
			fmt.Fprintf(stdout, "trace written to %s\n", *tracePath)
		}
		e = res.Emb
		fmt.Fprintf(stdout, "trained: %d steps, %d negatives in %.3fs (%.0f steps/sec)\n",
			res.Steps, res.Negatives, res.TrainTime.Seconds(), res.StepsPerSec())
	}

	if *eval {
		auc := embed.LinkAUC(e, sp)
		fmt.Fprintf(stdout, "link-prediction AUC: %.4f\n", auc)
	}
	if *out != "" {
		if err := embed.SaveFile(*out, e, seeds.Embed); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "embedding written to %s\n", *out)
	}
	return 0
}

// trainEmbedding runs the multilevel (or -flat single-level) training and
// prints the realized schedule.
func trainEmbedding(train *graph.Graph, mapper, construct string, cutoff int, flat bool, opt embed.Options, coarsenSeed uint64, stdout io.Writer) (*embed.Result, error) {
	m, err := coarsen.MapperByName(mapper)
	if err != nil {
		return nil, err
	}
	b, err := coarsen.BuilderByName(construct)
	if err != nil {
		return nil, err
	}
	c := &coarsen.Coarsener{Mapper: m, Builder: b, Cutoff: cutoff, Seed: coarsenSeed, Workers: opt.Workers}
	h, err := c.Run(train)
	if err != nil {
		return nil, err
	}
	if flat {
		// Equal-budget baseline: the total epochs the multilevel schedule
		// would spend, all on the finest graph.
		total := embed.TotalEpochs(len(h.Graphs), opt)
		fmt.Fprintf(stdout, "flat: %d epochs on the input graph\n", total)
		return embed.TrainFlat(train, total, opt)
	}
	fmt.Fprintf(stdout, "hierarchy: %d levels (coarsest n=%d) in %.3fs\n",
		h.Levels(), h.Coarsest().N(), h.TotalTime().Seconds())
	res, err := embed.TrainHierarchy(h, opt)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "epochs per level (finest first): %v\n", res.EpochsPerLevel)
	return res, nil
}
