package bench

import (
	"fmt"
	"runtime"
	"sort"

	"mlcg/internal/coarsen"
	"mlcg/internal/graph"
	"mlcg/internal/obs"
)

// RunConfig selects the slice of the table/figure suite a baseline run
// measures. It is recorded verbatim in the baseline file so a comparison
// can verify both sides measured the same thing.
type RunConfig struct {
	// Suite names the slice ("fast", "full", or "custom" after overrides).
	Suite string `json:"suite"`
	// Runs is the repetitions per measurement; the median is recorded.
	Runs int `json:"runs"`
	// Scale multiplies suite sizes (bench.Options.Scale).
	Scale int `json:"scale"`
	// Seed drives every random choice (0 = the harness default).
	Seed uint64 `json:"seed,omitempty"`
	// Workers lists the worker counts to sweep; 0 means GOMAXPROCS and is
	// resolved (and de-duplicated) at run time.
	Workers []int `json:"workers"`
	// Instances restricts the Table I analog suite by name.
	Instances []string `json:"instances"`
	// Mappers and Builders select the measured combinations.
	Mappers  []string `json:"mappers"`
	Builders []string `json:"builders"`
	// Counters adds one traced repetition per combination and records the
	// obs counter totals (hash probes, CAS retries, ...) as info metrics.
	Counters bool `json:"counters"`

	// HeadToHead lists mappers measured against each other in an extra
	// "mapcompare" experiment: every configured instance is coarsened with
	// each listed mapper (sort construction) at every HeadToHeadWorkers
	// count, so the baseline records directly comparable map-phase rows.
	// Used for the mis2 vs mis2fast worklist-kernel claim (docs/CLAIMS.md).
	HeadToHead []string `json:"head_to_head,omitempty"`
	// HeadToHeadWorkers are the worker counts of the head-to-head rows
	// (unlike Workers, these are not defaulted from GOMAXPROCS — the
	// speedup claim is pinned at explicit counts).
	HeadToHeadWorkers []int `json:"head_to_head_workers,omitempty"`

	// ObsOverhead adds the "obs" experiment: the per-call cost of the
	// telemetry record path (obs.Histogram.Observe, enabled and disabled),
	// committed so the tax of instrumenting the serve hot path stays
	// visible in the baseline history.
	ObsOverhead bool `json:"obs_overhead,omitempty"`

	// IOBandwidth adds the "ingest" and "hierio" experiments: MB/s of
	// text (sequential and streaming-parallel), legacy binary, and
	// container ingest on a fixed RMAT instance, plus hierarchy container
	// save/load bandwidth raw and delta-varint (see iobench.go and
	// EXPERIMENTS.md).
	IOBandwidth bool `json:"io_bandwidth,omitempty"`
}

// FastConfig is the CI slice: three small instances (one regular, two
// skewed), the two headline mappers, the sort/hash construction pair the
// paper's Tables II/III compare, and the adaptive auto policy so that
// regressions in the policy itself — not just in the fixed kernels — are
// gated. It finishes in seconds. The parallel arm is pinned at two
// workers, not GOMAXPROCS, so rows recorded on different hosts pair.
func FastConfig() RunConfig {
	return RunConfig{
		Suite:     "fast",
		Runs:      3,
		Scale:     1,
		Workers:   []int{1, 2},
		Instances: []string{"channel050", "mycielskian17", "ic04"},
		Mappers:   []string{"hec", "hem"},
		Builders:  []string{"sort", "hash", "auto"},
		Counters:  true,
		// The D2-MIS head-to-head: two of the three fast instances are
		// skewed (mycielskian17, ic04), the regime the worklist kernel
		// targets; p=8 pins the parallel claim, p=1 the sequential one.
		HeadToHead:        []string{"mis2", "mis2fast"},
		HeadToHeadWorkers: []int{1, 8},
		ObsOverhead:       true,
		IOBandwidth:       true,
	}
}

// FullConfig covers the whole 20-instance suite with the Table II-IV
// method set — the slice to record for a committed baseline refresh on a
// quiet machine.
func FullConfig() RunConfig {
	cfg := RunConfig{
		Suite:       "full",
		Runs:        5,
		Scale:       1,
		Workers:     []int{1, 2},
		Mappers:     []string{"hec", "hem", "twohop", "gosh"},
		Builders:    []string{"sort", "hash", "spgemm", "auto"},
		Counters:    true,
		ObsOverhead: true,
		IOBandwidth: true,
	}
	for _, inst := range (Options{}).Suite() {
		cfg.Instances = append(cfg.Instances, inst.Name)
	}
	return cfg
}

// ConfigByName returns the named suite slice.
func ConfigByName(name string) (RunConfig, error) {
	switch name {
	case "fast":
		return FastConfig(), nil
	case "full":
		return FullConfig(), nil
	}
	return RunConfig{}, fmt.Errorf("bench: unknown suite slice %q (want fast or full)", name)
}

// resolvedWorkers maps 0 to GOMAXPROCS and drops duplicates, preserving
// order (on a single-core host {1, 0} collapses to {1}).
func resolvedWorkers(ws []int) []int {
	var out []int
	seen := map[int]bool{}
	for _, w := range ws {
		if w <= 0 {
			w = runtime.GOMAXPROCS(0)
		}
		if !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	if len(out) == 0 {
		out = []int{runtime.GOMAXPROCS(0)}
	}
	return out
}

// RunBaseline measures the configured slice and returns the baseline
// (environment fingerprint included, CreatedAt left to the caller). For
// every instance × mapper × builder × workers combination it records
// median total/map/build wall times with raw samples, the coarsening rate
// ((2m+n)/s, the paper's Fig 3 metric), levels, and the coarsening ratio;
// with Counters set, one extra traced repetition records the obs counter
// totals.
func RunBaseline(cfg RunConfig) (*Baseline, error) {
	if cfg.Runs <= 0 {
		cfg.Runs = 3
	}
	opt := Options{Runs: cfg.Runs, Scale: cfg.Scale, Seed: cfg.Seed, Only: cfg.Instances}
	insts := opt.Suite()
	if len(insts) == 0 {
		return nil, fmt.Errorf("bench: no suite instances match %v", cfg.Instances)
	}
	workers := resolvedWorkers(cfg.Workers)
	if len(cfg.Mappers) == 0 {
		cfg.Mappers = []string{"hec"}
	}
	if len(cfg.Builders) == 0 {
		cfg.Builders = []string{"sort"}
	}

	b := &Baseline{SchemaVersion: SchemaVersion, Env: CaptureEnvironment(), Config: cfg}
	for _, inst := range insts {
		for _, mname := range cfg.Mappers {
			mapper, err := coarsen.MapperByName(mname)
			if err != nil {
				return nil, err
			}
			for _, bname := range cfg.Builders {
				builder, err := coarsen.BuilderByName(bname)
				if err != nil {
					return nil, err
				}
				for _, w := range workers {
					ms, err := measureCombo("coarsen", inst.Name, inst.Graph, mapper, builder, w, opt, cfg.Counters)
					if err != nil {
						return nil, fmt.Errorf("bench: %s/%s/%s/w=%d: %w", inst.Name, mname, bname, w, err)
					}
					b.Metrics = append(b.Metrics, ms...)
				}
			}
		}
	}
	// Head-to-head mapper rows ("mapcompare"): the same instances, a fixed
	// sort construction so map time dominates the comparison, explicit
	// worker counts.
	if len(cfg.HeadToHead) > 0 {
		hw := cfg.HeadToHeadWorkers
		if len(hw) == 0 {
			hw = []int{1}
		}
		for _, inst := range insts {
			for _, mname := range cfg.HeadToHead {
				mapper, err := coarsen.MapperByName(mname)
				if err != nil {
					return nil, err
				}
				for _, w := range hw {
					ms, err := measureCombo("mapcompare", inst.Name, inst.Graph, mapper, coarsen.BuildSort{}, w, opt, cfg.Counters)
					if err != nil {
						return nil, fmt.Errorf("bench: mapcompare %s/%s/w=%d: %w", inst.Name, mname, w, err)
					}
					b.Metrics = append(b.Metrics, ms...)
				}
			}
		}
	}
	// The telemetry-tax experiment: histogram record path cost.
	if cfg.ObsOverhead {
		b.Metrics = append(b.Metrics, measureObsOverhead(cfg.Runs)...)
	}
	// The IO experiments: ingest and hierarchy persistence bandwidth.
	if cfg.IOBandwidth {
		ms, err := measureIOBandwidth(cfg)
		if err != nil {
			return nil, err
		}
		b.Metrics = append(b.Metrics, ms...)
	}
	b.Sort()
	return b, nil
}

// measureCombo formats one instance × mapper × builder × workers cell,
// timed by timeCell, as Metric rows under the given experiment name.
func measureCombo(experiment, inst string, g *graph.Graph, mapper coarsen.Mapper, builder coarsen.Builder, workers int, opt Options, counters bool) ([]Metric, error) {
	c, err := timeCell(opt, g, mapper, builder, workers)
	if err != nil {
		return nil, err
	}
	raw := make([]float64, len(c.totals))
	for i, t := range c.totals {
		raw[i] = float64(t)
	}
	rate := 0.0 // guard: a graph at or below the cutoff is never mapped
	if c.TotalTime() > 0 {
		rate = float64(g.Size()) / c.TotalTime().Seconds()
	}
	id := Metric{Experiment: experiment, Instance: inst, Mapper: mapper.Name(), Builder: builder.Name(), Workers: workers}
	mk := func(name, unit string, dir Direction, v float64) Metric {
		m := id
		m.Name, m.Unit, m.Direction, m.Value = name, unit, dir, v
		return m
	}
	total := mk("total_ns", "ns", LowerIsBetter, float64(c.TotalTime()))
	total.Samples = raw
	out := []Metric{
		total,
		mk("map_ns", "ns", LowerIsBetter, float64(c.MapTime())),
		mk("build_ns", "ns", LowerIsBetter, float64(c.BuildTime())),
		mk("rate", "size/s", HigherIsBetter, rate),
		mk("levels", "levels", Informational, float64(c.Levels())),
		mk("coarsening_ratio", "ratio", Informational, c.CoarseningRatio()),
	}
	if counters {
		if tr := obs.StartTrace("bench-counters"); tr != nil {
			_, err := (&coarsen.Coarsener{Mapper: mapper, Builder: builder, Seed: opt.seed(), Workers: workers}).Run(g)
			tr.Stop()
			if err != nil {
				return nil, err
			}
			totals := tr.Root.Counters()
			names := make([]string, 0, len(totals))
			for n := range totals {
				names = append(names, n)
			}
			sort.Strings(names)
			for _, n := range names {
				out = append(out, mk("ctr_"+n, "count", Informational, float64(totals[n])))
			}
		}
	}
	return out, nil
}
