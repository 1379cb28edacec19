// mlcg-suite exports the Table I analog workload collection to disk so
// the graphs can be fed to external tools (e.g. real Metis binaries for a
// cross-check) or re-loaded without regeneration.
//
// Usage:
//
//	mlcg-suite -dir /tmp/suite -format metis
//	mlcg-suite -dir /tmp/suite -format binary -scale 2
//	mlcg-suite -dir /tmp/suite -stallcheck -metrics
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"mlcg/internal/cli"
	"mlcg/internal/coarsen"
	"mlcg/internal/gen"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mlcg-suite", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("dir", "suite", "output directory")
	format := fs.String("format", "metis", "output format: "+cli.Formats())
	scale := fs.Int("scale", 1, "workload scale multiplier")
	seed := fs.Uint64("seed", 20210517, "generation seed")
	workers := fs.Int("workers", 0, "parallelism for -stallcheck (0 = GOMAXPROCS)")
	mapperName := fs.String("mapper", "hec", "mapping algorithm for -stallcheck: "+cli.Mappers())
	construct := fs.String("construct", "auto", "construction policy for -stallcheck: "+cli.ConstructPolicies())
	stallcheck := fs.Bool("stallcheck", false, "coarsen every instance (-mapper + -construct) and report levels/stalls per row")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of suite generation to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile (after generation) to this file")
	tracePath := fs.String("trace", "", "write a Chrome trace_event JSON of the -stallcheck runs to this file")
	metrics := fs.Bool("metrics", false, "print the kernel metrics dump after the -stallcheck runs")
	asJSON := fs.Bool("json", false, "emit the per-instance rows as JSON instead of the text table")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	fail := func(err error) int {
		fmt.Fprintln(stderr, "mlcg-suite:", err)
		return 1
	}
	// Resolve the names before starting the profile and the trace, so a
	// bad name returns with neither running.
	mapper, err := coarsen.MapperByName(*mapperName)
	if err != nil {
		return fail(err)
	}
	builder, err := coarsen.BuilderByName(*construct)
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
	// main exits via os.Exit, which skips defers — finish the profiles
	// explicitly rather than deferring.
	code := export(*dir, *format, *scale, cli.DeriveSeeds(*seed), *workers, mapper, builder, *stallcheck, *asJSON, stdout, fail)
	if perr := stopProfiles(); perr != nil && code == 0 {
		return fail(perr)
	}
	if oerr := stopObs(); oerr != nil && code == 0 {
		return fail(oerr)
	}
	if code == 0 && *tracePath != "" {
		fmt.Fprintf(stdout, "trace written to %s\n", *tracePath)
	}
	return code
}

// suiteRow is the machine-readable form of one exported instance (-json).
type suiteRow struct {
	Name    string  `json:"name"`
	Domain  string  `json:"domain"`
	Skewed  bool    `json:"skewed"`
	N       int64   `json:"n"`
	M       int64   `json:"m"`
	Skew    float64 `json:"skew"`
	File    string  `json:"file"`
	Levels  int     `json:"levels,omitempty"`
	CR      float64 `json:"coarsening_ratio,omitempty"`
	Stalled bool    `json:"stalled,omitempty"`
}

func export(dir, format string, scale int, seeds cli.Seeds, workers int, mapper coarsen.Mapper, builder coarsen.Builder, stallcheck, asJSON bool, stdout io.Writer, fail func(error) int) int {
	ext := map[string]string{"metis": ".graph", "edgelist": ".txt", "binary": ".bin"}[format]
	if ext == "" {
		return fail(fmt.Errorf("unknown format %q (want %s)", format, cli.Formats()))
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fail(err)
	}

	suite := gen.Suite(gen.SuiteOptions{Scale: scale, Seed: seeds.Graph})
	coaHdr := ""
	if stallcheck {
		coaHdr = fmt.Sprintf(" %-18s", "coarsen")
	}
	if !asJSON {
		fmt.Fprintf(stdout, "%-14s %-6s %10s %10s %10s %s %s\n", "Graph", "Group", "n", "m", "skew", coaHdr, "file")
	}
	var rows []suiteRow
	for _, inst := range suite {
		path := filepath.Join(dir, inst.Name+ext)
		if err := cli.WriteGraph(inst.Graph, path, format); err != nil {
			return fail(err)
		}
		group := "regular"
		if inst.Skewed {
			group = "skewed"
		}
		s := inst.Graph.ComputeStats()
		row := suiteRow{Name: inst.Name, Domain: inst.Domain, Skewed: inst.Skewed, N: s.N, M: s.M, Skew: s.Skew, File: path}
		coa := ""
		if stallcheck {
			// A stalled hierarchy is not an error — the point of the column
			// is to make stalls visible instead of silently dropping them.
			c := &coarsen.Coarsener{Mapper: mapper, Builder: builder, Seed: seeds.Coarsen, Workers: workers}
			h, err := c.Run(inst.Graph)
			if err != nil {
				return fail(fmt.Errorf("%s: %w", inst.Name, err))
			}
			row.Levels, row.CR, row.Stalled = h.Levels(), h.CoarseningRatio(), h.Stalled
			if h.Stalled {
				coa = fmt.Sprintf(" %-18s", fmt.Sprintf("STALL(l=%d,p=%d)", h.Levels(), h.Dropped.Passes))
			} else {
				coa = fmt.Sprintf(" %-18s", fmt.Sprintf("ok(l=%d,cr=%.2f)", h.Levels(), h.CoarseningRatio()))
			}
		}
		if asJSON {
			rows = append(rows, row)
			continue
		}
		fmt.Fprintf(stdout, "%-14s %-6s %10d %10d %10.1f %s %s\n", inst.Name, group, s.N, s.M, s.Skew, coa, path)
	}
	if asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(map[string]interface{}{"suite": rows}); err != nil {
			return fail(err)
		}
	}
	return 0
}
