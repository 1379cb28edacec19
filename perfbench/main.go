// Command perfbench is the repository benchmark. It runs one of four
// workloads — the paper's multilevel FM and spectral bisection pipelines,
// an in-process mlcg-serve request mix, and multilevel embedding — on
// inputs it generates from --seed, checks every output, and prints one
// JSON result line: end-to-end metrics with --trace 0, per-layer metrics
// from a traced run with --trace 1. Build and run it with run.sh:
//
//	bash perfbench/run.sh --workload fm-skewed --seed 1 --seconds 15 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

type config struct {
	workload string
	seed     uint64
	dur      time.Duration
	trace    bool
	p        int // worker count: nproc
}

// report is what one workload run measured. e2e holds the end-to-end
// metrics of an untraced run, layers the per-layer metrics of a traced
// run; detail carries what the result line has no room for (tails with
// their sample counts, per-graph figures) and goes to standard error.
type report struct {
	attempted, failed int64
	e2e               map[string]float64
	layers            map[string]float64
	detail            map[string]any
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layers: map[string]float64{}, detail: map[string]any{}}
}

// fail records one failed operation with its reason.
func (r *report) fail(format string, args ...any) {
	r.failed++
	fmt.Fprintf(os.Stderr, "perfbench: FAILED: "+format+"\n", args...)
}

var workloads = map[string]func(config) (*report, error){
	"fm-skewed":        runFM,
	"spectral-regular": runSpectral,
	"serve-mixed":      runServe,
	"embed-rgg":        runEmbed,
}

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"pass_s", "s"},
	{"ops_per_s", "1/s"},
	{"build_p50_ms", "ms"},
	{"query_p50_ms", "ms"},
}

var perLayer = []metricDef{
	{"error_rate", "ratio"},
	{"cut_geomean", "edges"},
	{"auc", "ratio"},
	{"ingest_p50_ms", "ms"},
	{"build_tail_ms", "ms"},
	{"query_tail_ms", "ms"},

	{"coarsen.run_s", "s"},
	{"coarsen.map_s", "s"},
	{"coarsen.build_s", "s"},
	{"coarsen.levels", "count"},
	{"coarsen.ratio", "ratio"},
	{"coarsen.hash_probes", "count"},
	{"coarsen.hash_collisions", "count"},
	{"coarsen.radix_passes", "count"},
	{"coarsen.cas_retries", "count"},
	{"coarsen.reservations", "count"},
	{"coarsen.commits", "count"},
	{"coarsen.workspace_bytes_alloc", "bytes"},
	{"coarsen.workspace_bytes_reused", "bytes"},
	{"coarsen.auto_picks.sort", "count"},
	{"coarsen.auto_picks.hash", "count"},
	{"coarsen.auto_picks.segsort", "count"},
	{"coarsen.auto_picks.spgemm", "count"},
	{"coarsen.auto_picks.globalsort", "count"},

	{"partition.ggg_s", "s"},
	{"partition.fm_refine_s", "s"},
	{"partition.project_s", "s"},
	{"partition.fm_cut_reduction", "edges"},
	{"partition.fiedler_s", "s"},
	{"partition.fiedler_iters", "count"},
	{"partition.fiedler_converged_ratio", "ratio"},

	{"spmat.spmv_nnz", "count"},
	{"spmat.spmv_bytes_computed", "bytes"},
	{"spmat.spmv_gflops", "GFLOP/s"},
	{"spmat.finest_bytes", "bytes"},

	{"embed.train_s", "s"},
	{"embed.project_s", "s"},
	{"embed.sgd_steps", "count"},
	{"embed.negatives", "count"},
	{"embed.steps_per_s", "1/s"},

	{"serve.ingest_ms", "ms"},
	{"serve.build_queue_wait_ms", "ms"},
	{"serve.build_run_ms", "ms"},
	{"serve.query_partition_ms", "ms"},
	{"serve.query_cluster_ms", "ms"},
	{"serve.http_overhead_ms", "ms"},
	{"serve.graph_cache_hit_ratio", "ratio"},
	{"serve.build_cache_hit_ratio", "ratio"},
	{"serve.shed_429", "count"},
	{"serve.refused_507", "count"},

	{"par.busy_s", "s"},
	{"par.imbalance_max", "ratio"},
	{"par.speedup", "ratio"},
	{"par.p1_identical", "bool"},

	{"runtime.alloc_bytes_per_pass", "bytes"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_s", "s"},

	{"obs.trace_overhead_frac", "ratio"},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: fm-skewed, spectral-regular, serve-mixed, embed-rgg")
	seed := fs.Uint64("seed", 1, "seed every input is generated from")
	seconds := fs.Int("seconds", 10, "measurement window in seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds >= 1, --trace 0|1\n", workloadNames())
		return 2
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		dur:      time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		p:        runtime.NumCPU(),
	}
	rep, err := wl(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if rep.attempted > 0 {
		rep.layers["error_rate"] = float64(rep.failed) / float64(rep.attempted)
	}
	if !cfg.trace {
		rep.e2e["peak_rss_mb"] = peakRSSMB()
	}
	detail, _ := json.Marshal(rep.detail)
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d detail: %s\n", cfg.workload, cfg.seed, detail)
	return printResult(stdout, cfg, rep)
}

func workloadNames() string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// printResult writes the result line: every end-to-end metric for an
// untraced run, every per-layer metric for a traced one. A per-layer
// metric whose layer the workload never reaches reads 0.
func printResult(w io.Writer, cfg config, rep *report) int {
	defs, vals := endToEnd, rep.e2e
	if cfg.trace {
		defs, vals = perLayer, rep.layers
	}
	res := result{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok && !cfg.trace {
			fmt.Fprintf(os.Stderr, "perfbench: %s did not measure %s\n", cfg.workload, d.name)
			return 1
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(w, "%s\n", line)
	return 0
}

// setupReps is how many times a run repeats its set-up; setup_s is the
// median of the repetitions and the last one's state is measured.
const setupReps = 3

// timedSetup runs setup setupReps times, releasing every state but the
// last, and returns that state with the median set-up time in seconds.
func timedSetup[T any](setup func() (T, error), release func(T)) (T, float64, error) {
	var last T
	var times []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			release(last)
		}
		runtime.GC()
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return v, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		last = v
	}
	return last, median(times), nil
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// derive returns an independent seed for one input stream of a run
// (splitmix64 finalizer of seed and stream id).
func derive(seed, stream uint64) uint64 {
	z := seed + stream*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
