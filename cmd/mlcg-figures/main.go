// mlcg-figures regenerates the paper's figures: Fig 1 (coarse graphs per
// method, with optional DOT output), Fig 2 (heavy-edge classification),
// and Fig 3 (performance rate, parallel speedup, weak scaling).
//
// Usage:
//
//	mlcg-figures -fig 3
//	mlcg-figures -fig 1 -dot /tmp/coarse  # writes one .dot per method
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"mlcg/internal/bench"
	"mlcg/internal/cli"
	"mlcg/internal/coarsen"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, w, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("mlcg-figures", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig := fs.Int("fig", 0, "figure number to regenerate (1-3)")
	all := fs.Bool("all", false, "regenerate every figure")
	scaling := fs.Bool("scaling", false, "run the strong-scaling worker sweep")
	dot := fs.String("dot", "", "for -fig 1: directory to write per-method DOT files")
	runs := fs.Int("runs", 3, "repetitions per measurement")
	workers := fs.Int("workers", 0, "device parallelism (0 = GOMAXPROCS)")
	scale := fs.Int("scale", 1, "workload scale multiplier")
	seed := fs.Uint64("seed", 0, "random seed (0 = default)")
	only := fs.String("only", "", "comma-separated instance names to restrict the suite")
	tracePath := fs.String("trace", "", "write a Chrome trace_event JSON of the figure runs to this file")
	metrics := fs.Bool("metrics", false, "print the kernel metrics dump after the figure runs")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	stopObs, err := cli.StartObs(*tracePath, *metrics, w)
	if err != nil {
		fmt.Fprintln(stderr, "mlcg-figures:", err)
		return 1
	}
	defer func() {
		if oerr := stopObs(); oerr != nil {
			fmt.Fprintln(stderr, "mlcg-figures:", oerr)
			if code == 0 {
				code = 1
			}
		}
	}()

	opt := bench.Options{Runs: *runs, Workers: *workers, Scale: *scale, Seed: *seed}
	if *only != "" {
		opt.Only = strings.Split(*only, ",")
	}

	failed := false
	fail := func(err error) {
		fmt.Fprintln(stderr, "mlcg-figures:", err)
		failed = true
	}
	runFig := func(n int) {
		switch n {
		case 1:
			rows, maps, err := bench.Fig1(opt)
			if err != nil {
				fail(err)
				return
			}
			bench.FormatFig1(w, rows)
			if *dot != "" {
				if err := writeDots(*dot, rows, maps); err != nil {
					fail(err)
					return
				}
				fmt.Fprintf(w, "DOT files written to %s\n", *dot)
			}
		case 2:
			bench.FormatFig2(w, bench.Fig2(opt))
		case 3:
			rates := bench.Fig3Rate(opt)
			speedups := bench.Fig3Speedup(opt)
			weak, err := bench.Fig3WeakScaling(opt, nil)
			if err != nil {
				fail(err)
				return
			}
			bench.FormatFig3(w, rates, speedups, weak)
		default:
			fmt.Fprintf(stderr, "mlcg-figures: no figure %d (valid: 1-3)\n", n)
			failed = true
		}
		fmt.Fprintln(w)
	}

	exit := func() int {
		if failed {
			return 1
		}
		return 0
	}
	if *all {
		for n := 1; n <= 3; n++ {
			runFig(n)
		}
		return exit()
	}
	if *scaling {
		bench.FormatScaling(w, bench.StrongScaling(opt, nil))
		return exit()
	}
	if *fig == 0 {
		fs.Usage()
		return 2
	}
	if *fig < 1 || *fig > 3 {
		fmt.Fprintf(stderr, "mlcg-figures: no figure %d (valid: 1-3)\n", *fig)
		return 2
	}
	runFig(*fig)
	return exit()
}

// writeDots writes one DOT file per Fig 1 method, with the demo graph's
// vertices colored by the aggregate that method mapped them to — the
// visual form of Fig 1.
func writeDots(dir string, rows []bench.Fig1Row, maps []*coarsen.Mapping) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	g := bench.Fig1Demo()
	for i, r := range rows {
		f, err := os.Create(filepath.Join(dir, r.Method+".dot"))
		if err != nil {
			return err
		}
		if err := g.WriteDOT(f, r.Method, maps[i].M); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
