package bench

import (
	"fmt"
	"time"

	"mlcg/internal/coarsen"
	"mlcg/internal/gen"
	"mlcg/internal/graph"
	"mlcg/internal/par"
	"mlcg/internal/partition"
)

// Fig1Row is one method's one-level coarsening summary on a demo graph
// (Fig. 1: "coarse graphs produced after one level of coarsening").
type Fig1Row struct {
	Method     string
	NC         int32
	CoarseM    int64
	MaxAggSize int
}

// Fig1Demo returns the 16-vertex demo graph used for the Fig 1/Fig 2
// illustrations: two communities with a weak bridge and varied weights.
func Fig1Demo() *graph.Graph {
	e := []graph.Edge{
		{U: 0, V: 1, W: 4}, {U: 0, V: 2, W: 1}, {U: 1, V: 2, W: 2},
		{U: 1, V: 3, W: 3}, {U: 2, V: 3, W: 5}, {U: 3, V: 4, W: 1},
		{U: 4, V: 5, W: 6}, {U: 4, V: 6, W: 2}, {U: 5, V: 6, W: 3},
		{U: 5, V: 7, W: 2}, {U: 6, V: 7, W: 4}, {U: 7, V: 8, W: 1},
		{U: 8, V: 9, W: 5}, {U: 8, V: 10, W: 2}, {U: 9, V: 10, W: 3},
		{U: 9, V: 11, W: 4}, {U: 10, V: 11, W: 1}, {U: 11, V: 12, W: 2},
		{U: 12, V: 13, W: 6}, {U: 12, V: 14, W: 1}, {U: 13, V: 14, W: 2},
		{U: 13, V: 15, W: 3}, {U: 14, V: 15, W: 5}, {U: 15, V: 0, W: 1},
	}
	return graph.MustFromEdges(16, e)
}

// Fig1 coarsens the demo graph one level with every mapping method. It
// returns one row per method and, in the same order, the mappings the
// rows summarize (mlcg-figures -dot draws them).
func Fig1(opt Options) ([]Fig1Row, []*coarsen.Mapping, error) {
	g := Fig1Demo()
	var rows []Fig1Row
	var maps []*coarsen.Mapping
	for _, name := range coarsen.MapperNames() {
		mapper, err := coarsen.MapperByName(name)
		if err != nil {
			return nil, nil, err
		}
		m, err := mapper.Map(g, opt.seed(), 1)
		if err != nil {
			return nil, nil, err
		}
		cg, err := coarsen.BuildSort{}.Build(g, m, 1)
		if err != nil {
			return nil, nil, err
		}
		sizes := make([]int, m.NC)
		maxSize := 0
		for _, a := range m.M {
			sizes[a]++
			if sizes[a] > maxSize {
				maxSize = sizes[a]
			}
		}
		rows = append(rows, Fig1Row{Method: name, NC: m.NC, CoarseM: cg.M(), MaxAggSize: maxSize})
		maps = append(maps, m)
	}
	return rows, maps, nil
}

// Fig2Result carries the heavy-edge classification (Fig. 2) for the demo
// graph and aggregate statistics across the suite.
type Fig2Result struct {
	Demo      *coarsen.Classification
	SuiteRows []Fig2Row
}

// Fig2Row is the per-graph create/inherit/skip breakdown.
type Fig2Row struct {
	Name                  string
	Create, Inherit, Skip int64
}

// Fig2 classifies heavy edges on the demo graph and the suite.
func Fig2(opt Options) Fig2Result {
	res := Fig2Result{Demo: coarsen.ClassifyHeavyEdges(Fig1Demo(), opt.seed())}
	for _, inst := range opt.Suite() {
		c := coarsen.ClassifyHeavyEdges(inst.Graph, opt.seed())
		res.SuiteRows = append(res.SuiteRows, Fig2Row{
			Name:    inst.Name,
			Create:  c.Counts[coarsen.CreateEdge],
			Inherit: c.Counts[coarsen.InheritEdge],
			Skip:    c.Counts[coarsen.SkipEdge],
		})
	}
	return res
}

// Fig3RateRow is the performance-rate plot (Fig. 3 left): graph size
// (2m+n) processed per second of HEC coarsening.
type Fig3RateRow struct {
	Name   string
	Skewed bool
	Size   int64
	Rate   float64 // (2m+n) / seconds
}

// Fig3Rate measures the normalized coarsening rate at full parallelism.
func Fig3Rate(opt Options) []Fig3RateRow {
	workers := opt.workers()
	var rows []Fig3RateRow
	for _, inst := range opt.Suite() {
		g := inst.Graph
		t := mustCell(opt, g, coarsen.HEC{}, coarsen.BuildSort{}, workers).TotalTime()
		rows = append(rows, Fig3RateRow{
			Name: inst.Name, Skewed: inst.Skewed, Size: g.Size(),
			Rate: float64(g.Size()) / t.Seconds(),
		})
	}
	return rows
}

// Fig3SpeedupRow is the parallel-over-serial speedup (Fig. 3 center; the
// GPU-over-CPU comparison under the documented substitution).
type Fig3SpeedupRow struct {
	Name    string
	Skewed  bool
	TSerial time.Duration
	TDevice time.Duration
	Speedup float64
}

// Fig3Speedup compares full parallelism against single-worker execution.
func Fig3Speedup(opt Options) []Fig3SpeedupRow {
	workers := opt.workers()
	var rows []Fig3SpeedupRow
	for _, inst := range opt.Suite() {
		g := inst.Graph
		tPar := mustCell(opt, g, coarsen.HEC{}, coarsen.BuildSort{}, workers).TotalTime()
		tSer := mustCell(opt, g, coarsen.HEC{}, coarsen.BuildSort{}, 1).TotalTime()
		rows = append(rows, Fig3SpeedupRow{
			Name: inst.Name, Skewed: inst.Skewed,
			TSerial: tSer, TDevice: tPar,
			Speedup: float64(tSer) / float64(tPar),
		})
	}
	return rows
}

// Fig3WeakRow is one point of the weak-scaling study (Fig. 3 right).
type Fig3WeakRow struct {
	Family string
	Scale  int
	Size   int64
	Rate   float64
}

// Fig3WeakScaling measures the rgg/delaunay/kron generator families at
// increasing scales.
func Fig3WeakScaling(opt Options, scales []int) ([]Fig3WeakRow, error) {
	if len(scales) == 0 {
		scales = []int{1, 2, 4, 8}
	}
	workers := opt.workers()
	var rows []Fig3WeakRow
	for _, family := range []string{"rgg", "delaunay", "kron"} {
		for _, s := range scales {
			g, err := gen.FamilyGraph(family, s, opt.seed())
			if err != nil {
				return nil, fmt.Errorf("bench: %w", err)
			}
			t := mustCell(opt, g, coarsen.HEC{}, coarsen.BuildSort{}, workers).TotalTime()
			rows = append(rows, Fig3WeakRow{
				Family: family, Scale: s, Size: g.Size(),
				Rate: float64(g.Size()) / t.Seconds(),
			})
		}
	}
	return rows, nil
}

// SkewRow is one point of the degree-skew sweep: coarsening behaviour on
// configuration-model graphs with a controlled power-law exponent.
type SkewRow struct {
	Gamma     float64
	Skew      float64 // measured Δ/(2m/n)
	CrHEC     float64 // HEC per-level coarsening ratio
	GrCoPct   float64 // %time in construction (sort)
	HashRatio float64 // hash/sort construction-time ratio
}

// SkewSweep isolates the paper's regular-vs-skewed axis: graphs of equal
// size whose only varying property is the degree-distribution tail. The
// paper's groups differ in many ways at once; this sweep shows the same
// trends (construction share and HEC aggressiveness grow with skew)
// emerging from skew alone.
func SkewSweep(opt Options, gammas []float64) []SkewRow {
	if len(gammas) == 0 {
		gammas = []float64{5, 3, 2.6, 2.3, 2.1}
	}
	workers := opt.workers()
	var rows []SkewRow
	for _, gamma := range gammas {
		g := gen.PowerLaw(20000*maxInt(opt.Scale, 1), gamma, 2, 2000, opt.seed())
		sortC := mustCell(opt, g, coarsen.HEC{}, coarsen.BuildSort{}, workers)
		hashBT := mustCell(opt, g, coarsen.HEC{}, coarsen.BuildHash{}, workers).BuildTime()
		rows = append(rows, SkewRow{
			Gamma:     gamma,
			Skew:      g.DegreeSkew(),
			CrHEC:     sortC.CoarseningRatio(),
			GrCoPct:   100 * float64(sortC.BuildTime()) / float64(sortC.TotalTime()),
			HashRatio: float64(hashBT) / float64(sortC.BuildTime()),
		})
	}
	return rows
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// PremiseRow quantifies the multilevel heuristic itself (the paper's
// opening premise): the same FM refinement run flat on the fine graph vs
// through the multilevel pipeline.
type PremiseRow struct {
	Name   string
	Skewed bool
	// FlatCut is FM from a random balanced start on the fine graph only.
	FlatCut int64
	// MLCut is the multilevel pipeline's cut (HEC + GGG + per-level FM).
	MLCut int64
	// CutRatio = FlatCut / MLCut (> 1 means multilevel wins).
	CutRatio float64
	// TimeRatio = t_flat / t_ml.
	TimeRatio float64
}

// MultilevelPremise measures flat FM against multilevel FM on the suite.
func MultilevelPremise(opt Options) []PremiseRow {
	runs := opt.runs()
	workers := opt.workers()
	var rows []PremiseRow
	for _, inst := range opt.Suite() {
		g := inst.Graph
		var flatCut, mlCut int64
		tFlat, _, _ := medianOf(runs, func() error {
			part := make([]int32, g.N())
			rng := par.NewRNG(opt.seed())
			for i := range part {
				part[i] = int32(rng.Intn(2))
			}
			flatCut = partition.RefineFM(g, part, partition.FMOptions{})
			return nil
		})
		// Every run bisects with opt.seed(), so MLCut is one seed's cut,
		// like FlatCut.
		tML, _, err := medianOf(runs, func() error {
			res, err := partition.NewHECFM(opt.seed(), workers).Bisect(g)
			if err != nil {
				return err
			}
			mlCut = res.Cut
			return nil
		})
		if err != nil {
			panic(err)
		}
		rows = append(rows, PremiseRow{
			Name: inst.Name, Skewed: inst.Skewed,
			FlatCut: flatCut, MLCut: mlCut,
			CutRatio:  ratio64(flatCut, mlCut),
			TimeRatio: float64(tFlat) / float64(tML),
		})
	}
	return rows
}

// ScalingRow is one point of a strong-scaling sweep: HEC coarsening time
// on one graph at a given worker count.
type ScalingRow struct {
	Name    string
	Workers int
	Tc      time.Duration
	Speedup float64 // t(1) / t(workers)
}

// StrongScaling sweeps worker counts over representative graphs —
// the multicore half of the paper's performance story (Fig 3 center on a
// real multicore host; on a single-core container it flat-lines at 1).
// threads == nil sweeps powers of two up to GOMAXPROCS.
func StrongScaling(opt Options, threads []int) []ScalingRow {
	if len(threads) == 0 {
		max := opt.workers()
		for t := 1; t <= max; t *= 2 {
			threads = append(threads, t)
		}
		if threads[len(threads)-1] != max {
			threads = append(threads, max)
		}
	}
	var rows []ScalingRow
	for _, inst := range opt.Suite() {
		var t1 time.Duration
		for _, th := range threads {
			t := mustCell(opt, inst.Graph, coarsen.HEC{}, coarsen.BuildSort{}, th).TotalTime()
			if th == threads[0] {
				t1 = t
			}
			rows = append(rows, ScalingRow{
				Name: inst.Name, Workers: th, Tc: t,
				Speedup: float64(t1) / float64(t),
			})
		}
	}
	return rows
}

// DedupAblationRow quantifies the degree-based one-sided deduplication
// optimization (the paper reports 25.7× slower construction on kron21
// without it).
type DedupAblationRow struct {
	Name    string
	Skewed  bool
	TOneOff time.Duration // construction time without the optimization
	TOneOn  time.Duration // construction time with it forced on
	Speedup float64
}

// DedupAblation measures construction time with the one-sided optimization
// disabled vs forced, on the skewed half of the suite.
func DedupAblation(opt Options) []DedupAblationRow {
	workers := opt.workers()
	var rows []DedupAblationRow
	for _, inst := range opt.Suite() {
		if !inst.Skewed {
			continue
		}
		off := mustCell(opt, inst.Graph, coarsen.HEC{}, coarsen.BuildSort{OneSided: coarsen.OneSidedOff}, workers).BuildTime()
		on := mustCell(opt, inst.Graph, coarsen.HEC{}, coarsen.BuildSort{OneSided: coarsen.OneSidedOn}, workers).BuildTime()
		rows = append(rows, DedupAblationRow{
			Name: inst.Name, Skewed: true,
			TOneOff: off, TOneOn: on,
			Speedup: float64(off) / float64(on),
		})
	}
	return rows
}
