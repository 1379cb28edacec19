package partition

import (
	"context"
	"fmt"
	"time"

	"mlcg/internal/coarsen"
	"mlcg/internal/graph"
	"mlcg/internal/obs"
)

// Result is the outcome of a multilevel bisection.
type Result struct {
	Part    []int32
	Cut     int64
	Weights [2]int64
	Levels  int

	CoarsenTime time.Duration // multilevel coarsening (the paper's %Coa)
	InitTime    time.Duration // coarsest-graph solve
	RefineTime  time.Duration // interpolation + per-level refinement
}

// TotalTime returns the end-to-end partitioning time.
func (r *Result) TotalTime() time.Duration {
	return r.CoarsenTime + r.InitTime + r.RefineTime
}

// SpectralBisector is the paper's primary case study: multilevel spectral
// bisection. Coarsening builds the hierarchy; the Fiedler vector of the
// coarsest graph seeds power-iteration refinement at every finer level;
// the finest vector is split at the weighted median.
type SpectralBisector struct {
	Coarsener coarsen.Coarsener
	Fiedler   FiedlerOptions
	Seed      uint64
	// TargetW0 is the desired side-0 vertex weight (0 = half), used by
	// the recursive k-way partitioner for proportional splits.
	TargetW0 int64
}

// Bisect partitions g into two balanced parts.
func (b *SpectralBisector) Bisect(g *graph.Graph) (*Result, error) {
	return b.bisect(g, obs.Ambient())
}

// bisect is Bisect with every kernel's span opened under span.
func (b *SpectralBisector) bisect(g *graph.Graph, span *obs.Span) (*Result, error) {
	if g.N() == 0 {
		return &Result{}, nil
	}
	t0 := time.Now()
	h, err := b.Coarsener.RunCtx(obs.ContextWithSpan(context.Background(), span), g)
	if err != nil {
		return nil, fmt.Errorf("partition: coarsening: %w", err)
	}
	t1 := time.Now()

	// Solve on the coarsest graph from a random start.
	x, _ := fiedler(h.Coarsest(), nil, b.Seed^0x5eed, b.Fiedler, span)
	t2 := time.Now()

	// Interpolate and re-refine level by level.
	for i := len(h.Maps) - 1; i >= 0; i-- {
		fineG := h.Graphs[i]
		m := h.Maps[i]
		xf := make([]float64, fineG.N())
		for u := range m {
			xf[u] = x[m[u]]
		}
		x, _ = fiedler(fineG, xf, b.Seed, b.Fiedler, span)
	}
	part := SplitByVectorTarget(g, x, b.TargetW0)
	t3 := time.Now()

	return &Result{
		Part:        part,
		Cut:         edgeCut(g, part, span),
		Weights:     SideWeights(g, part),
		Levels:      h.Levels(),
		CoarsenTime: t1.Sub(t0),
		InitTime:    t2.Sub(t1),
		RefineTime:  t3.Sub(t2),
	}, nil
}

// FMBisector is the alternative multilevel partitioner of Section IV.C:
// parallel coarsening, greedy graph growing on the coarsest graph, and
// sequential Fiduccia–Mattheyses refinement at every level.
type FMBisector struct {
	Coarsener coarsen.Coarsener
	FM        FMOptions
	GGGTrials int // initial-partition attempts; 0 means 4
	Seed      uint64
	// TargetW0 is the desired side-0 vertex weight (0 = half), used by
	// the recursive k-way partitioner for proportional splits.
	TargetW0 int64
}

// Bisect partitions g into two balanced parts.
func (b *FMBisector) Bisect(g *graph.Graph) (*Result, error) {
	return b.bisect(g, obs.Ambient())
}

// bisect is Bisect with every kernel's span opened under span.
func (b *FMBisector) bisect(g *graph.Graph, span *obs.Span) (*Result, error) {
	if g.N() == 0 {
		return &Result{}, nil
	}
	trials := b.GGGTrials
	if trials <= 0 {
		trials = 4
	}
	t0 := time.Now()
	h, err := b.Coarsener.RunCtx(obs.ContextWithSpan(context.Background(), span), g)
	if err != nil {
		return nil, fmt.Errorf("partition: coarsening: %w", err)
	}
	t1 := time.Now()

	fm := b.FM
	fm.TargetW0 = b.TargetW0
	// RefineFM returns the exact cut of the partition it leaves, so the
	// last call's result is the cut of the finest partition.
	coarsest := h.Coarsest()
	part := greedyGrowTarget(coarsest, b.Seed^0x99, trials, b.TargetW0, span)
	cut := refineFM(coarsest, part, fm, span)
	t2 := time.Now()

	for i := len(h.Maps) - 1; i >= 0; i-- {
		fineG := h.Graphs[i]
		m := h.Maps[i]
		pf := make([]int32, fineG.N())
		for u := range m {
			pf[u] = part[m[u]]
		}
		cut = refineFM(fineG, pf, fm, span)
		part = pf
	}
	t3 := time.Now()

	return &Result{
		Part:        part,
		Cut:         cut,
		Weights:     SideWeights(g, part),
		Levels:      h.Levels(),
		CoarsenTime: t1.Sub(t0),
		InitTime:    t2.Sub(t1),
		RefineTime:  t3.Sub(t2),
	}, nil
}

// NewMetisLike returns the sequential Metis-style baseline the paper
// compares against (Table VI, "Mts"): sequential heavy edge matching for
// coarsening, greedy graph growing, FM refinement.
func NewMetisLike(seed uint64) *FMBisector {
	return &FMBisector{
		Coarsener: coarsen.Coarsener{
			Mapper:  coarsen.HEMSeq{},
			Builder: coarsen.BuildSort{},
			Seed:    seed,
			Workers: 1,
		},
		Seed: seed,
	}
}

// NewMtMetisLike returns the mt-Metis-style baseline (Table VI, "mtMts"):
// parallel HEM with two-hop (leaf/twin/relative) matching, greedy graph
// growing, FM refinement.
func NewMtMetisLike(seed uint64, workers int) *FMBisector {
	return &FMBisector{
		Coarsener: coarsen.Coarsener{
			Mapper:  coarsen.TwoHop{},
			Builder: coarsen.BuildSort{},
			Seed:    seed,
			Workers: workers,
		},
		Seed: seed,
	}
}

// NewHECFM returns the paper's best pipeline (Table VI, "FM+GPU-HEC" /
// "FM+CPU-HEC"): parallel HEC coarsening with FM refinement.
func NewHECFM(seed uint64, workers int) *FMBisector {
	return &FMBisector{
		Coarsener: coarsen.Coarsener{
			Mapper:  coarsen.HEC{},
			Builder: coarsen.BuildSort{},
			Seed:    seed,
			Workers: workers,
		},
		Seed: seed,
	}
}

// NewSpectralHEC returns the paper's GPU spectral pipeline (Table V):
// parallel HEC coarsening with multilevel power-iteration refinement.
func NewSpectralHEC(seed uint64, workers int) *SpectralBisector {
	return &SpectralBisector{
		Coarsener: coarsen.Coarsener{
			Mapper:  coarsen.HEC{},
			Builder: coarsen.BuildSort{},
			Seed:    seed,
			Workers: workers,
		},
		Fiedler: FiedlerOptions{Workers: workers},
		Seed:    seed,
	}
}
