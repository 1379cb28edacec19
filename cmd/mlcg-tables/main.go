// mlcg-tables regenerates the paper's evaluation tables (I-VI) and the
// Section IV.A HEC-variant comparison on the synthetic workload suite.
//
// Usage:
//
//	mlcg-tables -table 4                 # one table
//	mlcg-tables -all -runs 5 -scale 2    # everything, larger inputs
//	mlcg-tables -table 2 -only kron21,ppa
//	mlcg-tables -all -json               # one {"table","rows"} object per table
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"mlcg/internal/bench"
	"mlcg/internal/cli"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, w, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("mlcg-tables", flag.ContinueOnError)
	fs.SetOutput(stderr)
	table := fs.Int("table", 0, "table number to regenerate (1-6)")
	all := fs.Bool("all", false, "regenerate every table")
	variants := fs.Bool("hecvariants", false, "run the HEC/HEC2/HEC3 comparison (Section IV.A)")
	ablation := fs.Bool("dedup-ablation", false, "run the one-sided dedup ablation")
	shootout := fs.Bool("builders", false, "run the all-builders construction shootout")
	construct := fs.Bool("construct", false, "run the isolated construction benchmark (workspace reuse study)")
	goshhec := fs.Bool("goshhec", false, "run the GOSH vs GOSH/HEC hybrid study")
	premise := fs.Bool("premise", false, "run the multilevel-vs-flat FM premise study")
	skew := fs.Bool("skew", false, "run the degree-skew sweep (configuration model)")
	runs := fs.Int("runs", 3, "repetitions per measurement (median reported; paper uses 10)")
	workers := fs.Int("workers", 0, "device parallelism (0 = GOMAXPROCS)")
	scale := fs.Int("scale", 1, "workload scale multiplier")
	seed := fs.Uint64("seed", 0, "random seed (0 = default)")
	only := fs.String("only", "", "comma-separated instance names to restrict the suite")
	asJSON := fs.Bool("json", false, "emit rows as JSON instead of formatted tables")
	tracePath := fs.String("trace", "", "write a Chrome trace_event JSON of the table runs to this file")
	metrics := fs.Bool("metrics", false, "print the kernel metrics dump after the table runs")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	stopObs, err := cli.StartObs(*tracePath, *metrics, w)
	if err != nil {
		fmt.Fprintln(stderr, "mlcg-tables:", err)
		return 1
	}
	defer func() {
		if oerr := stopObs(); oerr != nil {
			fmt.Fprintln(stderr, "mlcg-tables:", oerr)
			if code == 0 {
				code = 1
			}
		}
	}()

	opt := bench.Options{Runs: *runs, Workers: *workers, Scale: *scale, Seed: *seed}
	if *only != "" {
		opt.Only = strings.Split(*only, ",")
	}
	dev := fmt.Sprintf("%d-worker", *workers)
	if *workers <= 0 {
		dev = fmt.Sprintf("%d-worker (GOMAXPROCS)", runtime.GOMAXPROCS(0))
	}

	e := &emitter{w: w, json: *asJSON}
	runTable := func(n int) {
		switch n {
		case 1:
			emit(e, "table1", bench.Table1(opt), bench.FormatTable1)
		case 2:
			emit(e, "table2", bench.Table23(opt, opt.Workers), func(w io.Writer, rows []bench.Table2Row) {
				bench.FormatTable23(w, rows, "device ("+dev+") / Table II analog")
			})
		case 3:
			// Table III is the host role: half the device parallelism per
			// the documented substitution.
			hw := runtime.GOMAXPROCS(0) / 2
			if hw < 1 {
				hw = 1
			}
			emit(e, "table3", bench.Table23(opt, hw), func(w io.Writer, rows []bench.Table2Row) {
				bench.FormatTable23(w, rows, fmt.Sprintf("host (%d-worker) / Table III analog", hw))
			})
		case 4:
			emit(e, "table4", bench.Table4(opt), bench.FormatTable4)
		case 5:
			emit(e, "table5", bench.Table5(opt), bench.FormatTable5)
		case 6:
			emit(e, "table6", bench.Table6(opt), bench.FormatTable6)
		}
	}

	if *table != 0 && (*table < 1 || *table > 6) {
		fmt.Fprintf(stderr, "mlcg-tables: no table %d (valid: 1-6)\n", *table)
		return 2
	}
	if *all {
		for n := 1; n <= 6; n++ {
			runTable(n)
		}
	} else if *table != 0 {
		runTable(*table)
	}
	if *all || *variants {
		emit(e, "hecvariants", bench.HECVariants(opt), bench.FormatHECVariants)
	}
	if *all || *ablation {
		emit(e, "dedup-ablation", bench.DedupAblation(opt), bench.FormatDedupAblation)
	}
	if *shootout {
		emit(e, "builders", bench.BuilderShootout(opt), bench.FormatShootout)
	}
	if *construct {
		emit(e, "construct", bench.ConstructBench(opt), bench.FormatConstructBench)
	}
	if *goshhec {
		emit(e, "goshhec", bench.GOSHHECStudy(opt), bench.FormatGOSHHEC)
	}
	if *premise {
		emit(e, "premise", bench.MultilevelPremise(opt), bench.FormatPremise)
	}
	if *skew {
		emit(e, "skew", bench.SkewSweep(opt, nil), bench.FormatSkewSweep)
	}
	if e.n == 0 {
		fs.Usage()
		return 2
	}
	if e.err != nil {
		fmt.Fprintln(stderr, "mlcg-tables:", e.err)
		return 1
	}
	return 0
}

// emitter is the one output path of every table and study: a formatted
// text table followed by a blank line, or under -json one
// {"table": name, "rows": [...]} object per table.
type emitter struct {
	w    io.Writer
	json bool
	n    int   // tables emitted
	err  error // first JSON encoding error
}

func emit[T any](e *emitter, name string, rows []T, format func(io.Writer, []T)) {
	e.n++
	if !e.json {
		format(e.w, rows)
		fmt.Fprintln(e.w)
		return
	}
	enc := json.NewEncoder(e.w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(map[string]interface{}{"table": name, "rows": rows}); err != nil && e.err == nil {
		e.err = fmt.Errorf("%s: %w", name, err)
	}
}
