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
	"mlcg/internal/partition"
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

// cell is one timed coarsening cell. Its Hierarchy is the run with the
// median TotalTime, so the cell's MapTime/BuildTime/TotalTime come from
// one run and stay consistent with each other; totals holds every timed
// run's TotalTime in run order, for noise analysis.
type cell struct {
	*coarsen.Hierarchy
	totals []time.Duration
}

// timeCell is the one way the harness times a coarsening hierarchy: a GC
// to level the heap, one untimed warmup run so no builder pays first-touch
// page faults for its scratch inside the timed runs (on small instances
// both effects exceed the builder differences being measured), then
// opt.runs() timed runs, of which it returns the one with the median
// TotalTime.
func timeCell(opt Options, g *graph.Graph, mapper coarsen.Mapper, builder coarsen.Builder, workers int) (cell, error) {
	c := &coarsen.Coarsener{Mapper: mapper, Builder: builder, Seed: opt.seed(), Workers: workers}
	runtime.GC()
	if _, err := c.Run(g); err != nil {
		return cell{}, err
	}
	hs := make([]*coarsen.Hierarchy, opt.runs())
	totals := make([]time.Duration, len(hs))
	for i := range hs {
		h, err := c.Run(g)
		if err != nil {
			return cell{}, err
		}
		hs[i], totals[i] = h, h.TotalTime()
	}
	sort.SliceStable(hs, func(a, b int) bool { return hs[a].TotalTime() < hs[b].TotalTime() })
	return cell{Hierarchy: hs[len(hs)/2], totals: totals}, nil
}

// mustCell is timeCell for the table functions, which treat a failed
// coarsening run as a harness bug.
func mustCell(opt Options, g *graph.Graph, mapper coarsen.Mapper, builder coarsen.Builder, workers int) cell {
	c, err := timeCell(opt, g, mapper, builder, workers)
	if err != nil {
		panic(err)
	}
	return c
}

// medianOf times runs calls of f, work that is not a coarsening hierarchy,
// and returns the median duration and every run's nanoseconds in run
// order.
func medianOf(runs int, f func() error) (time.Duration, []float64, error) {
	ds := make([]time.Duration, runs)
	raw := make([]float64, runs)
	for i := range ds {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, nil, err
		}
		ds[i] = time.Since(t0)
		raw[i] = float64(ds[i])
	}
	sort.Slice(ds, func(a, b int) bool { return ds[a] < ds[b] })
	return ds[len(ds)/2], raw, nil
}

// bisector is a multilevel bisection pipeline.
type bisector interface {
	Bisect(*graph.Graph) (*partition.Result, error)
}

// bisection is one timed bisection cell.
type bisection struct {
	cut    int64         // median edge cut
	time   time.Duration // mean total time
	coaPct float64       // % of the total time spent coarsening
}

// timeBisect is the one way the harness times a bisection: for each
// r < opt.runs() it runs the pipeline mk builds for seed opt.seed()+r.
func timeBisect(opt Options, g *graph.Graph, mk func(seed uint64) bisector) bisection {
	runs := opt.runs()
	cuts := make([]int64, runs)
	var elapsed, coa time.Duration
	for r := range cuts {
		res, err := mk(opt.seed() + uint64(r)).Bisect(g)
		if err != nil {
			panic(err)
		}
		cuts[r] = res.Cut
		elapsed += res.TotalTime()
		coa += res.CoarsenTime
	}
	return bisection{
		cut:    medianInt64(cuts),
		time:   elapsed / time.Duration(runs),
		coaPct: 100 * float64(coa) / float64(elapsed),
	}
}

// spectral returns the Table V pipeline for mapper m: sort construction
// and at most 300 power iterations per level.
func spectral(m coarsen.Mapper, workers int) func(seed uint64) bisector {
	return func(seed uint64) bisector {
		return &partition.SpectralBisector{
			Coarsener: coarsen.Coarsener{Mapper: m, Builder: coarsen.BuildSort{}, Seed: seed, Workers: workers},
			Fiedler:   partition.FiedlerOptions{MaxIter: 300, Workers: workers},
			Seed:      seed,
		}
	}
}
