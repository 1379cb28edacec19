// mlcg-coarsen runs multilevel coarsening on a graph file (or a generated
// graph) and prints per-level statistics. It also saves, loads, and
// inspects hierarchy containers (internal/hierfmt, docs/FORMAT.md).
//
// Usage:
//
//	mlcg-coarsen -in graph.txt -mapper hec -construct sort
//	mlcg-coarsen -in graph.graph -format metis -quality
//	mlcg-coarsen -gen rmat -mapper twohop -verify
//	mlcg-coarsen -gen rgg -out coarsest.graph -outformat metis
//	mlcg-coarsen -gen rmat -save h.mlcg            # persist the hierarchy
//	mlcg-coarsen -load h.mlcg -quality -verify     # inspect without rebuilding
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"mlcg/internal/cli"
	"mlcg/internal/coarsen"
	"mlcg/internal/graph"
	"mlcg/internal/hierfmt"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mlcg-coarsen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("in", "", "input graph file")
	format := fs.String("format", "edgelist", "input format: "+cli.Formats())
	genName := fs.String("gen", "", "generate input instead: "+cli.Generators())
	mapper := fs.String("mapper", "hec", "mapping algorithm: "+cli.Mappers())
	construct := fs.String("construct", "auto", "construction policy: "+cli.ConstructPolicies())
	cutoff := fs.Int("cutoff", 50, "coarsening cutoff")
	seed := fs.Uint64("seed", 20210517, "random seed")
	workers := fs.Int("workers", 0, "parallelism (0 = GOMAXPROCS)")
	out := fs.String("out", "", "write the coarsest graph to this file")
	outFormat := fs.String("outformat", "edgelist", "output format: "+cli.Formats())
	save := fs.String("save", "", "write the whole hierarchy (graphs, mappings, stats) as a versioned container (docs/FORMAT.md)")
	compress := fs.Bool("compress", false, "delta-varint compress adjacency in the -save container")
	load := fs.String("load", "", "load a hierarchy container instead of coarsening; combine with -quality/-verify/-out/-save")
	quality := fs.Bool("quality", false, "print a per-level mapping quality report")
	verify := fs.Bool("verify", false, "validate every coarse graph and (for strict schemes) aggregate connectivity")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the coarsening run to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile (after the run) to this file")
	tracePath := fs.String("trace", "", "write a Chrome trace_event JSON of the coarsening run to this file")
	metrics := fs.Bool("metrics", false, "print the kernel metrics dump (spans, counters, imbalance) after the run")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	fail := func(err error) int {
		fmt.Fprintln(stderr, "mlcg-coarsen:", err)
		return 1
	}

	var (
		g   *graph.Graph
		h   *coarsen.Hierarchy
		err error
	)
	if *load != "" {
		// Inspect/convert mode: the container replaces the coarsening run.
		if h, _, err = hierfmt.LoadFile(*load, hierfmt.LoadOptions{FullValidate: *verify}); err != nil {
			return fail(err)
		}
		g = h.Graphs[0]
	} else {
		seeds := cli.DeriveSeeds(*seed)
		g, err = cli.LoadOrGenerate(*in, *format, *genName, seeds.Graph)
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
		stopProfiles, err := cli.StartProfiles(*cpuProfile, *memProfile)
		if err != nil {
			return fail(err)
		}
		stopObs, err := cli.StartObs(*tracePath, *metrics, stdout)
		if err != nil {
			return fail(err)
		}
		c := &coarsen.Coarsener{Mapper: m, Builder: b, Cutoff: *cutoff, Seed: seeds.Coarsen, Workers: *workers}
		h, err = c.Run(g)
		if perr := stopProfiles(); perr != nil {
			return fail(perr)
		}
		if oerr := stopObs(); oerr != nil {
			return fail(oerr)
		}
		if err != nil {
			return fail(err)
		}
		if *tracePath != "" {
			fmt.Fprintf(stdout, "trace written to %s\n", *tracePath)
		}
	}

	s := g.ComputeStats()
	fmt.Fprintf(stdout, "input: n=%d m=%d skew=%.1f\n", s.N, s.M, s.Skew)
	fmt.Fprintf(stdout, "%-6s %10s %10s %12s %12s  %s\n", "level", "n", "m", "map(ms)", "build(ms)", "builder")
	for i, st := range h.Stats {
		bcol := st.Builder
		if st.BuildReason != "" {
			bcol += " (" + st.BuildReason + ")"
		}
		fmt.Fprintf(stdout, "%-6d %10d %10d %12.3f %12.3f  %s\n",
			i+1, st.NC, h.Graphs[i+1].M(),
			float64(st.MapTime.Microseconds())/1000,
			float64(st.BuildTime.Microseconds())/1000, bcol)
	}
	fmt.Fprintf(stdout, "levels=%d cr=%.2f total=%.3fs (map %.3fs, build %.3fs)\n",
		h.Levels(), h.CoarseningRatio(), h.TotalTime().Seconds(),
		h.MapTime().Seconds(), h.BuildTime().Seconds())
	// Loaded containers carry the stalled bit but not the dropped attempt.
	switch st := h.Dropped; {
	case h.Stalled && st != nil:
		fmt.Fprintf(stdout, "stalled: mapping produced no reduction (n=%d nc=%d) after %d passes\n",
			st.N, st.NC, st.Passes)
	case h.Stalled:
		fmt.Fprintln(stdout, "stalled: mapping produced no reduction on the final attempt")
	case st != nil:
		fmt.Fprintf(stdout, "discarded: final level collapsed too far (n=%d nc=%d); its map %.3fms and build %.3fms are in the total\n",
			st.N, st.NC, float64(st.MapTime.Microseconds())/1000, float64(st.BuildTime.Microseconds())/1000)
	}

	if *quality {
		fmt.Fprintln(stdout, "per-level mapping quality:")
		for i, mm := range h.Maps {
			q, err := coarsen.Quality(h.Graphs[i], &coarsen.Mapping{M: mm, NC: h.Graphs[i+1].NumV})
			if err != nil {
				return fail(err)
			}
			fmt.Fprintf(stdout, "  level %d: %s\n", i+1, q)
		}
	}
	if *verify {
		strict := *mapper != "twohop" // two-hop aggregates may be disconnected by design
		if *load != "" {
			// A container does not record its mapper, so the default -mapper
			// says nothing about a loaded hierarchy: check connectivity only
			// when -mapper names it.
			mapperSet := false
			fs.Visit(func(f *flag.Flag) { mapperSet = mapperSet || f.Name == "mapper" })
			if !mapperSet {
				strict = false
				fmt.Fprintln(stdout, "aggregate connectivity not checked (pass -mapper to name the loaded hierarchy's mapper)")
			}
		}
		for i, cg := range h.Graphs[1:] {
			if err := cg.Validate(); err != nil {
				return fail(fmt.Errorf("level %d: %w", i+1, err))
			}
			if strict {
				mm := &coarsen.Mapping{M: h.Maps[i], NC: cg.NumV}
				if err := coarsen.VerifyStrictAggregation(h.Graphs[i], mm); err != nil {
					return fail(fmt.Errorf("level %d: %w", i+1, err))
				}
			}
		}
		fmt.Fprintln(stdout, "verification passed")
	}

	if *out != "" {
		if err := cli.WriteGraph(h.Coarsest(), *out, *outFormat); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "coarsest graph written to %s\n", *out)
	}
	if *save != "" {
		opt := hierfmt.SaveOptions{CompressAdj: *compress}
		if err := hierfmt.SaveFile(*save, h, opt); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "hierarchy written to %s\n", *save)
	}
	return 0
}
