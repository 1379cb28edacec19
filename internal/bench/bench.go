package bench

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"mlcg/internal/coarsen"
	"mlcg/internal/gen"
	"mlcg/internal/graph"
)

// Options configures a harness run.
type Options struct {
	// Runs is the number of repetitions per measurement; the median is
	// reported (the paper uses 10). Zero means 3.
	Runs int
	// Workers is the "device" parallelism (0 = GOMAXPROCS); the serial
	// baseline always uses 1.
	Workers int
	// Seed drives every random choice.
	Seed uint64
	// Scale multiplies suite sizes (1 = laptop default).
	Scale int
	// Only restricts the suite to the named instances (nil = all 20).
	Only []string
}

func (o Options) runs() int {
	if o.Runs <= 0 {
		return 3
	}
	return o.Runs
}

func (o Options) workers() int {
	if o.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

func (o Options) seed() uint64 {
	if o.Seed == 0 {
		return 20210517
	}
	return o.Seed
}

// suiteCache memoizes generated suites: the harness functions each call
// Suite(), and regenerating 20 graphs per table would dominate small runs.
var suiteCache sync.Map // gen.SuiteOptions -> []gen.Instance

// Suite generates the workload collection for these options, restricted
// to Only when set. Suites are cached per (scale, seed); callers must not
// modify the returned graphs.
func (o Options) Suite() []gen.Instance {
	key := gen.SuiteOptions{Scale: o.Scale, Seed: o.seed()}
	var all []gen.Instance
	if v, ok := suiteCache.Load(key); ok {
		all = v.([]gen.Instance)
	} else {
		all = gen.Suite(key)
		suiteCache.Store(key, all)
	}
	if len(o.Only) == 0 {
		return all
	}
	want := make(map[string]bool, len(o.Only))
	for _, n := range o.Only {
		want[n] = true
	}
	var out []gen.Instance
	for _, inst := range all {
		if want[inst.Name] {
			out = append(out, inst)
		}
	}
	return out
}

// medianDuration returns the median of runs timings of f.
func medianDuration(runs int, f func()) time.Duration {
	ts := make([]time.Duration, runs)
	for i := range ts {
		t0 := time.Now()
		f()
		ts[i] = time.Since(t0)
	}
	sort.Slice(ts, func(a, b int) bool { return ts[a] < ts[b] })
	return ts[len(ts)/2]
}

// geoMean returns the geometric mean of xs, ignoring non-positive entries
// (used for ratio columns where some rows are missing, the paper's OOM
// analog).
func geoMean(xs []float64) float64 {
	prod := 1.0
	n := 0
	for _, x := range xs {
		if x > 0 {
			prod *= x
			n++
		}
	}
	if n == 0 {
		return 0
	}
	// n-th root via repeated exponentiation-free approach.
	return pow(prod, 1/float64(n))
}

func pow(x, e float64) float64 { return math.Pow(x, e) }

// hierarchyFor runs the multilevel coarsener once and returns the result.
func hierarchyFor(g *graph.Graph, mapper coarsen.Mapper, builder coarsen.Builder, workers int, seed uint64) (*coarsen.Hierarchy, error) {
	return hierarchyForD(g, mapper, builder, workers, seed, 0)
}

// hierarchyForD is hierarchyFor with an explicit DiscardBelow: the
// mapcompare rows disable the discard rule (-1) so aggressive aggregators
// (the D2-MIS pair can collapse a skewed graph below 10 vertices in one
// level) still record the work they did instead of an empty hierarchy.
func hierarchyForD(g *graph.Graph, mapper coarsen.Mapper, builder coarsen.Builder, workers int, seed uint64, discard int) (*coarsen.Hierarchy, error) {
	c := &coarsen.Coarsener{Mapper: mapper, Builder: builder, Seed: seed, Workers: workers, DiscardBelow: discard}
	return c.Run(g)
}

// medianBuildTime returns the median Hierarchy.BuildTime over opt.runs()
// HEC hierarchies of g constructed with b.
func medianBuildTime(g *graph.Graph, b coarsen.Builder, opt Options) time.Duration {
	ds := make([]time.Duration, opt.runs())
	for i := range ds {
		h, err := hierarchyFor(g, coarsen.HEC{}, b, opt.workers(), opt.seed())
		if err != nil {
			panic(err)
		}
		ds[i] = h.BuildTime()
	}
	sort.Slice(ds, func(a, c int) bool { return ds[a] < ds[c] })
	return ds[len(ds)/2]
}
