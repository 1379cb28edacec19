package main

import (
	"fmt"
	"hash/fnv"
	"time"

	"mlcg/internal/coarsen"
	"mlcg/internal/gen"
	"mlcg/internal/graph"
	"mlcg/internal/partition"
	"mlcg/internal/spmat"
)

// fiedlerMaxIter bounds power iteration per level, as the Table V
// reproduction does (300 SpMV iterations per level at tol 1e-10).
const fiedlerMaxIter = 300

// runFM is the fm-skewed workload: the Table VI pipeline (HEC coarsening
// with the adaptive builder, greedy graph growing, FM refinement at every
// level) on the ten skewed-degree Table I analogs.
func runFM(cfg config) (*report, error) { return runBisect(cfg, false) }

// runSpectral is the spectral-regular workload: the Table V pipeline (HEC
// coarsening with sort construction, power-iteration Fiedler refinement at
// every level) on the ten regular Table I analogs.
func runSpectral(cfg config) (*report, error) { return runBisect(cfg, true) }

func runBisect(cfg config, spectral bool) (*report, error) {
	setup := func() (*bisectPipeline, error) {
		var graphs []gen.Instance
		for _, inst := range gen.Suite(gen.SuiteOptions{Scale: 1, Seed: derive(cfg.seed, 1)}) {
			if inst.Skewed != spectral {
				graphs = append(graphs, inst)
			}
		}
		return &bisectPipeline{spectral: spectral, graphs: graphs, seed: derive(cfg.seed, 2)}, nil
	}
	pl, setupS, err := timedSetup(setup, func(*bisectPipeline) {})
	if err != nil {
		return nil, err
	}
	rep := runPipeline(cfg, pl, setupS)
	rep.detail["graphs"] = graphSizes(pl.graphs)
	return rep, nil
}

type bisectPipeline struct {
	spectral bool
	graphs   []gen.Instance
	seed     uint64
}

// bisection is one pipeline output before its check.
type bisection struct {
	part         []int32
	cut          int64
	build, solve time.Duration
	err          error
}

func (b *bisectPipeline) coarsener(p int) coarsen.Coarsener {
	c := coarsen.Coarsener{Mapper: coarsen.HEC{}, Builder: &coarsen.AutoConstruct{}, Seed: b.seed, Workers: p}
	if b.spectral {
		c.Builder = coarsen.BuildSort{}
	}
	return c
}

func (b *bisectPipeline) fiedlerOptions(p int) partition.FiedlerOptions {
	return partition.FiedlerOptions{Tol: 1e-10, MaxIter: fiedlerMaxIter, Workers: p}
}

func (b *bisectPipeline) pass(p int, lay *layers) func() []op {
	out := make([]bisection, len(b.graphs))
	for i, inst := range b.graphs {
		switch {
		case lay != nil && b.spectral:
			out[i] = b.spectralSteps(inst.Graph, p, lay)
		case lay != nil:
			out[i] = b.fmSteps(inst.Graph, p, lay)
		default:
			out[i] = b.oneCall(inst.Graph, p)
		}
	}
	return func() []op {
		ops := make([]op, len(out))
		for i, r := range out {
			ops[i] = checkBisection(b.graphs[i], r)
		}
		return ops
	}
}

// oneCall bisects g with the pipeline's single public entry point.
func (b *bisectPipeline) oneCall(g *graph.Graph, p int) bisection {
	var res *partition.Result
	var err error
	if b.spectral {
		sb := &partition.SpectralBisector{Coarsener: b.coarsener(p), Fiedler: b.fiedlerOptions(p), Seed: b.seed}
		res, err = sb.Bisect(g)
	} else {
		fb := &partition.FMBisector{Coarsener: b.coarsener(p), Seed: b.seed}
		res, err = fb.Bisect(g)
	}
	if err != nil {
		return bisection{err: err}
	}
	return bisection{part: res.Part, cut: res.Cut, build: res.CoarsenTime, solve: res.InitTime + res.RefineTime}
}

// fmSteps is FMBisector.Bisect decomposed into its public calls, in the
// pipeline's order and with its seeds: Coarsener.Run, GreedyGrowTarget and
// RefineFM on the coarsest graph, then project and RefineFM per level.
func (b *bisectPipeline) fmSteps(g *graph.Graph, p int, lay *layers) bisection {
	c := b.coarsener(p)
	var h *coarsen.Hierarchy
	var err error
	lay.span("coarsen.Run", func() { h, err = c.Run(g) })
	if err != nil {
		return bisection{err: err}
	}
	lay.hierarchy(h)
	coarsest := h.Coarsest()
	var part []int32
	lay.span("partition.GreedyGrowTarget", func() { part = partition.GreedyGrowTarget(coarsest, b.seed^0x99, 4, 0) })
	cut := partition.EdgeCut(coarsest, part)
	refine := func(gg *graph.Graph, pp []int32) {
		var after int64
		lay.span("partition.RefineFM", func() { after = partition.RefineFM(gg, pp, partition.FMOptions{}) })
		// A projected partition keeps its coarse cut, so the cut before
		// each refinement is the previous refinement's result.
		lay.add("partition.fm_cut_reduction", float64(cut-after))
		cut = after
	}
	refine(coarsest, part)
	for i := len(h.Maps) - 1; i >= 0; i-- {
		fine := h.Graphs[i]
		var pf []int32
		lay.span("partition.project", func() { pf = project(h.Maps[i], part, fine.N()) })
		refine(fine, pf)
		part = pf
	}
	return bisection{part: part, cut: cut}
}

// spectralSteps is SpectralBisector.Bisect decomposed the same way:
// Coarsener.Run, Fiedler on the coarsest graph, then project and Fiedler
// per level, and SplitByVectorTarget on the finest vector.
func (b *bisectPipeline) spectralSteps(g *graph.Graph, p int, lay *layers) bisection {
	c := b.coarsener(p)
	var h *coarsen.Hierarchy
	var err error
	lay.span("coarsen.Run", func() { h, err = c.Run(g) })
	if err != nil {
		return bisection{err: err}
	}
	lay.hierarchy(h)
	opt := b.fiedlerOptions(p)
	var x []float64
	fiedler := func(gg *graph.Graph, x0 []float64, seed uint64) {
		var iters int
		lay.span("partition.Fiedler", func() { x, iters = partition.Fiedler(gg, x0, seed, opt) })
		lay.fiedler = append(lay.fiedler, fiedlerLevel{g: gg, iters: iters, finest: gg == g})
	}
	fiedler(h.Coarsest(), nil, b.seed^0x5eed)
	for i := len(h.Maps) - 1; i >= 0; i-- {
		fine := h.Graphs[i]
		var xf []float64
		lay.span("partition.project", func() { xf = project(h.Maps[i], x, fine.N()) })
		fiedler(fine, xf, b.seed)
	}
	var part []int32
	lay.span("partition.SplitByVectorTarget", func() { part = partition.SplitByVectorTarget(g, x, 0) })
	return bisection{part: part, cut: partition.EdgeCut(g, part)}
}

// project carries per-vertex values one level finer through a mapping,
// the interpolation loop both bisectors run between levels.
func project[T any](m []int32, coarse []T, n int) []T {
	fine := make([]T, n)
	for u := range m {
		fine[u] = coarse[m[u]]
	}
	return fine
}

// checkBisection validates one bisection: a balanced two-way partition
// whose reported cut equals the cut recomputed here.
func checkBisection(inst gen.Instance, r bisection) op {
	o := op{name: inst.Name, build: r.build, solve: r.solve, err: r.err}
	if o.err != nil {
		return o
	}
	if err := partition.CheckBisection(inst.Graph, r.part, 0); err != nil {
		o.err = err
		return o
	}
	if c := edgeCut(inst.Graph, r.part); c != r.cut {
		o.err = fmt.Errorf("reported cut %d, recomputed %d", r.cut, c)
		return o
	}
	o.score = float64(r.cut)
	o.fp = hashInt32(r.part)
	return o
}

// edgeCut is the benchmark's own cut count, independent of the library's.
func edgeCut(g *graph.Graph, part []int32) int64 {
	var cut int64
	for u := int32(0); u < g.NumV; u++ {
		adj, wgt := g.Neighbors(u)
		for k, v := range adj {
			if u < v && part[u] != part[v] {
				cut += wgt[k]
			}
		}
	}
	return cut
}

func hashInt32(xs []int32) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	for _, x := range xs {
		buf[0], buf[1], buf[2], buf[3] = byte(x), byte(x>>8), byte(x>>16), byte(x>>24)
		h.Write(buf[:])
	}
	return h.Sum64()
}

func (b *bisectPipeline) quality(ops []op) (string, float64) {
	cuts := make([]float64, len(ops))
	for i, o := range ops {
		cuts[i] = o.score
	}
	return "cut_geomean", geomean(cuts)
}

// p1Contract: FM bisection is pinned to the worker-count determinism
// contract; spectral bisection is only recorded (par.p1_identical).
func (b *bisectPipeline) p1Contract() bool { return !b.spectral }

// fiedlerLevel is one level a traced spectral pass ran Fiedler on.
type fiedlerLevel struct {
	g      *graph.Graph
	iters  int
	finest bool
}

// probeKernels derives the spmat metrics from the first traced spectral
// pass: SpMV work Σ iters·nnz(L) and the bytes it moves as computed from
// array sizes, the rate of MulVec on each level's Laplacian timed here
// outside the traced passes, and the finest-level working set of
// Laplacian plus the power iteration's four vectors.
func (b *bisectPipeline) probeKernels(lay *layers, p int, out map[string]float64) {
	var nnz, bytes, flops float64
	var spent time.Duration
	var finest float64
	for _, lv := range lay.fiedler {
		l := spmat.Laplacian(lv.g)
		rows, nz := float64(l.Rows), float64(l.NNZ())
		perMul := 8*(rows+1) + 12*nz + 8*nz + 8*rows // rowptr, col+val, x gathers, y
		nnz += float64(lv.iters) * nz
		bytes += float64(lv.iters) * perMul
		if lv.finest {
			if ws := 8*(rows+1) + 12*nz + 4*8*rows; ws > finest {
				finest = ws
			}
		}
		reps := min(max(lv.iters, 1), 50)
		x := make([]float64, l.Cols)
		y := make([]float64, l.Rows)
		for i := range x {
			x[i] = float64(i%7) - 3
		}
		t0 := time.Now()
		for r := 0; r < reps; r++ {
			l.MulVec(y, x, p)
		}
		spent += time.Since(t0)
		flops += 2 * nz * float64(reps)
	}
	out["spmat.spmv_nnz"] = nnz
	out["spmat.spmv_bytes_computed"] = bytes
	out["spmat.spmv_gflops"] = flops / spent.Seconds() / 1e9
	out["spmat.finest_bytes"] = finest
}

// graphSizes lists each input graph with n, m and 2m+n.
func graphSizes(insts []gen.Instance) []map[string]any {
	out := make([]map[string]any, len(insts))
	for i, inst := range insts {
		g := inst.Graph
		out[i] = map[string]any{"name": inst.Name, "n": g.N(), "m": g.M(), "2m+n": 2*g.M() + int64(g.N())}
	}
	return out
}
