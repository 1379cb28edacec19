package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"mlcg/internal/coarsen"
	"mlcg/internal/obs"
)

// op is one checked output of a pass: one bisection or one embedding.
type op struct {
	name  string        // the input graph
	fp    uint64        // fingerprint of the output (partition or embedding bits)
	score float64       // edge cut or AUC
	build time.Duration // hierarchy build time inside the operation
	solve time.Duration // time spent solving on the built hierarchy
	err   error         // a failed call or a failed output check
}

// pipeline is a pass-based workload: a fixed set of generated graphs run
// through one multilevel pipeline per pass, with the same seeds every
// pass, so every pass must produce the same outputs.
type pipeline interface {
	// pass runs the pipeline once over every input with p workers. With
	// lay nil it makes the one-call pipeline calls; otherwise it runs the
	// layer-by-layer decomposition with a span around every layer call and
	// adds its counts to lay. The returned function checks the outputs and
	// is not timed.
	pass(p int, lay *layers) func() []op
	// quality names the pipeline's quality metric and computes it from
	// one pass's outputs.
	quality(ops []op) (string, float64)
	// p1Contract reports whether outputs must be identical at one worker
	// and at nproc workers (the repository's determinism contract).
	p1Contract() bool
}

// passStats is one leg of passes.
type passStats struct {
	secs  []float64 // wall seconds per pass
	build []float64 // per pass: summed hierarchy build time, ms
	solve []float64 // per pass: summed solve time, ms
	first []op      // outputs of the leg's first pass
	ops   int
	wall  time.Duration
}

// runPasses runs untraced passes until d has elapsed and at least
// minPasses passes are done, checking every output.
func runPasses(rep *report, pl pipeline, p int, d time.Duration, minPasses int) *passStats {
	st := &passStats{}
	start := time.Now()
	for len(st.secs) < minPasses || time.Since(start) < d {
		// Each pass starts from a collected heap, so no pass pays for
		// garbage its predecessor left.
		runtime.GC()
		t0 := time.Now()
		check := pl.pass(p, nil)
		st.secs = append(st.secs, time.Since(t0).Seconds())
		st.add(rep, check())
	}
	st.wall = time.Since(start)
	return st
}

// add records one pass's checked outputs; an output that differs from
// the same input's output in the leg's first pass is a failure.
func (st *passStats) add(rep *report, ops []op) {
	var build, solve float64
	for i, o := range ops {
		rep.attempted++
		st.ops++
		build += ms(o.build)
		solve += ms(o.solve)
		if o.err == nil && st.first != nil && o.fp != st.first[i].fp {
			o.err = errors.New("output differs from the first pass")
		}
		if o.err != nil {
			rep.fail("%s: %v", o.name, o.err)
		}
	}
	st.build = append(st.build, build)
	st.solve = append(st.solve, solve)
	if st.first == nil {
		st.first = ops
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sameOutputs reports whether two passes produced identical outputs.
func sameOutputs(a, b []op) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].fp != b[i].fp {
			return false
		}
	}
	return true
}

// runPipeline measures a pass-based workload: end-to-end metrics from
// untraced passes, or per-layer metrics from the traced run.
func runPipeline(cfg config, pl pipeline, setupS float64) *report {
	rep := newReport()
	rep.e2e["setup_s"] = setupS
	if cfg.trace {
		tracedPipeline(cfg, pl, rep)
		return rep
	}
	// One unmeasured warm-up pass lets lazy allocation and caches settle.
	pl.pass(cfg.p, nil)
	st := runPasses(rep, pl, cfg.p, cfg.dur, 3)
	rep.e2e["pass_s"] = median(st.secs)
	rep.e2e["ops_per_s"] = float64(st.ops) / st.wall.Seconds()
	rep.e2e["build_p50_ms"] = median(st.build)
	rep.e2e["query_p50_ms"] = median(st.solve)
	qname, q := pl.quality(st.first)
	rep.detail[qname] = q
	rep.detail["pass_s_tail"] = tailOf(st.secs)
	rep.detail["build_ms_tail"] = tailOf(st.build)
	rep.detail["query_ms_tail"] = tailOf(st.solve)
	rep.detail["pass_s_all"] = st.secs
	return rep
}

// tracedPipeline is the traced run. It has three legs of equal length:
// untraced passes at nproc workers (the baseline for trace overhead and
// speed-up, with Go runtime statistics around it), traced passes of the
// layer-by-layer decomposition (the per-layer numbers; their outputs must
// equal the untraced ones), and untraced passes at one worker.
func tracedPipeline(cfg config, pl pipeline, rep *report) {
	leg := cfg.dur / 3

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	base := runPasses(rep, pl, cfg.p, leg, 2)
	runtime.ReadMemStats(&m1)
	n := float64(len(base.secs))
	rep.layers["runtime.alloc_bytes_per_pass"] = float64(m1.TotalAlloc-m0.TotalAlloc) / n
	rep.layers["runtime.gc_cycles"] = float64(m1.NumGC-m0.NumGC) / n
	rep.layers["runtime.gc_pause_s"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e9 / n

	var secs []float64
	var passes []*layers
	var first *obs.Trace
	start := time.Now()
	for len(secs) < 2 || time.Since(start) < leg {
		lay := newLayers()
		runtime.GC()
		tr := obs.StartTrace(cfg.workload)
		t0 := time.Now()
		check := pl.pass(cfg.p, lay)
		secs = append(secs, time.Since(t0).Seconds())
		tr.Stop()
		lay.fromTrace(tr)
		ops := check()
		for i, o := range ops {
			rep.attempted++
			if o.err == nil && o.fp != base.first[i].fp {
				o.err = errors.New("traced decomposition output differs from the one-call pipeline")
			}
			if o.err != nil {
				rep.fail("%s (traced): %v", o.name, o.err)
			}
		}
		passes = append(passes, lay)
		if first == nil {
			first = tr
		}
	}
	if b, ok := pl.(*bisectPipeline); ok && b.spectral {
		b.probeKernels(passes[0], cfg.p, rep.layers)
	}
	for name, v := range medianLayers(passes) {
		rep.layers[name] = v
	}
	rep.detail["counter_exactness"] = counterExactness(passes)
	rep.layers["obs.trace_overhead_frac"] = median(secs)/median(base.secs) - 1
	qname, q := pl.quality(base.first)
	rep.layers[qname] = q

	one := runPasses(rep, pl, 1, leg, 1)
	rep.layers["par.speedup"] = median(one.secs) / median(base.secs)
	if sameOutputs(one.first, base.first) {
		rep.layers["par.p1_identical"] = 1
	} else if pl.p1Contract() {
		rep.fail("outputs at 1 worker differ from outputs at %d workers", cfg.p)
	}
	rep.detail["passes"] = map[string]int{"untraced": len(base.secs), "traced": len(secs), "one_worker": len(one.secs)}

	if err := writeTrace(cfg, first); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing trace: %v\n", err)
	}
}

// traceDir is where traced runs write their Chrome trace, relative to the
// checkout root the benchmark runs from.
const traceDir = ".bench_build/traces"

// writeTrace writes a traced run's spans as one Chrome trace per workload.
func writeTrace(cfg config, tr *obs.Trace) error {
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(traceDir, cfg.workload+".trace.json")
	if err := tr.WriteTraceFile(path); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: wrote %s\n", path)
	return nil
}

// layers accumulates one traced pass's per-layer values.
type layers struct {
	vals     map[string]float64
	counters map[string]int64 // exact work counters under coarsen.Run spans
	levels   []float64        // levels per hierarchy built
	ratios   []float64        // coarsening ratio per hierarchy built
	fiedler  []fiedlerLevel   // spectral: every level Fiedler ran on
}

func newLayers() *layers {
	return &layers{vals: map[string]float64{}, counters: map[string]int64{}}
}

func (l *layers) add(name string, v float64) { l.vals[name] += v }

// span runs fn inside a span named after the layer function it calls.
func (l *layers) span(name string, fn func()) {
	s := obs.StartKernel(name)
	fn()
	s.Done()
}

// hierarchy records the shape of one built hierarchy.
func (l *layers) hierarchy(h *coarsen.Hierarchy) {
	l.levels = append(l.levels, float64(h.Levels()))
	l.ratios = append(l.ratios, h.CoarseningRatio())
}

// spanMetric maps the benchmark's own span names to the per-layer time
// they feed.
var spanMetric = map[string]string{
	"coarsen.Run":                "coarsen.run_s",
	"partition.GreedyGrowTarget": "partition.ggg_s",
	"partition.RefineFM":         "partition.fm_refine_s",
	"partition.project":          "partition.project_s",
	"partition.Fiedler":          "partition.fiedler_s",
	"embed.TrainHierarchy":       "embed.train_s",
}

// counterMetric maps obs counter names to per-layer metric names.
var counterMetric = map[string]string{
	"hash_probes":               "coarsen.hash_probes",
	"hash_collisions":           "coarsen.hash_collisions",
	"radix_passes":              "coarsen.radix_passes",
	"cas_retries":               "coarsen.cas_retries",
	"reservations":              "coarsen.reservations",
	"commits":                   "coarsen.commits",
	"workspace_bytes_alloc":     "coarsen.workspace_bytes_alloc",
	"workspace_bytes_reused":    "coarsen.workspace_bytes_reused",
	"construct_auto_sort":       "coarsen.auto_picks.sort",
	"construct_auto_hash":       "coarsen.auto_picks.hash",
	"construct_auto_segsort":    "coarsen.auto_picks.segsort",
	"construct_auto_spgemm":     "coarsen.auto_picks.spgemm",
	"construct_auto_globalsort": "coarsen.auto_picks.globalsort",
}

// fromTrace derives a finished traced pass's per-layer values: from the
// span tree, the time of each layer call, coarsening split into its map
// and build phases (the program's own level spans), embedding projection,
// per-worker busy time and imbalance, and the work counters read from each
// coarsen.Run subtree; from what the pass recorded, hierarchy shape and
// Fiedler iterations.
func (l *layers) fromTrace(tr *obs.Trace) {
	var busy time.Duration
	var imbMax float64
	var walk func(s, parent *obs.Span)
	walk = func(s, parent *obs.Span) {
		name := s.Name()
		if m, ok := spanMetric[name]; ok {
			l.add(m, s.Wall().Seconds())
		}
		if strings.HasPrefix(parent.Name(), "level ") {
			switch {
			case strings.HasPrefix(name, "map:"):
				l.add("coarsen.map_s", s.Wall().Seconds())
			case strings.HasPrefix(name, "build:"):
				l.add("coarsen.build_s", s.Wall().Seconds())
			}
		}
		if name == "embed:project" {
			l.add("embed.project_s", s.Wall().Seconds())
		}
		if name == "coarsen.Run" {
			for k, v := range s.Counters() {
				if m, ok := counterMetric[k]; ok {
					l.counters[m] += v
				}
			}
		}
		for _, b := range s.Busy() {
			busy += b
		}
		if imb := s.Imbalance(); imb > imbMax {
			imbMax = imb
		}
		for _, c := range s.Children() {
			walk(c, s)
		}
	}
	walk(tr.Root, nil)
	l.vals["par.busy_s"] = busy.Seconds()
	l.vals["par.imbalance_max"] = imbMax
	if l.vals["embed.train_s"] > 0 {
		// TrainHierarchy's span covers SGD and projection; report them apart.
		l.vals["embed.train_s"] -= l.vals["embed.project_s"]
		l.vals["embed.steps_per_s"] = l.vals["embed.sgd_steps"] / l.vals["embed.train_s"]
	}
	if len(l.levels) > 0 {
		var sum float64
		for _, v := range l.levels {
			sum += v
		}
		l.vals["coarsen.levels"] = sum / float64(len(l.levels))
		l.vals["coarsen.ratio"] = geomean(l.ratios)
	}
	for _, m := range counterMetric {
		l.vals[m] = float64(l.counters[m])
	}
	if len(l.fiedler) > 0 {
		// Fiedler returns MaxIter when the tolerance was never met.
		var iters, converged float64
		for _, lv := range l.fiedler {
			iters += float64(lv.iters)
			if lv.iters < fiedlerMaxIter {
				converged++
			}
		}
		l.vals["partition.fiedler_iters"] = iters
		l.vals["partition.fiedler_converged_ratio"] = converged / float64(len(l.fiedler))
	}
}

// medianLayers takes each per-layer value's median over the traced
// passes.
func medianLayers(passes []*layers) map[string]float64 {
	out := map[string]float64{}
	for name := range passes[0].vals {
		xs := make([]float64, len(passes))
		for i, l := range passes {
			xs[i] = l.vals[name]
		}
		out[name] = median(xs)
	}
	return out
}

// counterExactness marks each work counter "exact" when every traced
// pass read the same value, else "varies".
func counterExactness(passes []*layers) map[string]string {
	out := map[string]string{}
	for _, m := range counterMetric {
		out[m] = "exact"
		for _, l := range passes[1:] {
			if l.counters[m] != passes[0].counters[m] {
				out[m] = "varies"
			}
		}
	}
	return out
}
