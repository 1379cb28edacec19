package bench

import (
	"fmt"
	"sort"
	"time"

	"mlcg/internal/coarsen"
	"mlcg/internal/gen"
	"mlcg/internal/partition"
)

// Table1Row is one row of the Table I analog: the workload collection.
type Table1Row struct {
	Name, Domain, Generator string
	Skewed                  bool
	M, N                    int64
	Skew                    float64
}

// Table1 summarizes the suite.
func Table1(opt Options) []Table1Row {
	var rows []Table1Row
	for _, inst := range opt.Suite() {
		s := inst.Graph.ComputeStats()
		rows = append(rows, Table1Row{
			Name: inst.Name, Domain: inst.Domain, Generator: inst.Comment,
			Skewed: inst.Skewed, M: s.M, N: s.N, Skew: s.Skew,
		})
	}
	return rows
}

// Table2Row is one row of Tables II/III: HEC coarsening with different
// construction strategies.
type Table2Row struct {
	Name   string
	Skewed bool
	// Tc is the total multilevel coarsening time with sort construction.
	Tc time.Duration
	// GrCoPct is the percentage of Tc spent in graph construction.
	GrCoPct float64
	// HashRatio and SpGEMMRatio are construction-time ratios
	// t_GrCo-alt / t_GrCo-sort (> 1 means sort wins).
	HashRatio, SpGEMMRatio float64
	// Stalled reports that at least one measured hierarchy ended in a
	// mapping stall (its partial times are still included in Tc via
	// Hierarchy.TotalTime, which counts StallStats).
	Stalled bool
}

// Table23 measures HEC-based coarsening with sort/hash/SpGEMM
// construction. workers selects the device role: the paper's Table II is
// the GPU (use full parallelism) and Table III the 32-core CPU (per the
// documented substitution, any second thread count; the shapes, not the
// absolute times, are the claim).
func Table23(opt Options, workers int) []Table2Row {
	runs := opt.runs()
	var rows []Table2Row
	for _, inst := range opt.Suite() {
		g := inst.Graph
		// Per run, record (construction, total) as a pair and report the
		// run with the median total, so %GrCo is internally consistent.
		stalled := false
		buildTime := func(b coarsen.Builder) (time.Duration, time.Duration) {
			type pair struct{ build, total time.Duration }
			ps := make([]pair, runs)
			for i := range ps {
				h, err := hierarchyFor(g, coarsen.HEC{}, b, workers, opt.seed())
				if err != nil {
					panic(err)
				}
				stalled = stalled || h.Stalled
				ps[i] = pair{h.BuildTime(), h.TotalTime()}
			}
			sort.Slice(ps, func(a, c int) bool { return ps[a].total < ps[c].total })
			med := ps[len(ps)/2]
			return med.build, med.total
		}
		sortBT, sortTotal := buildTime(coarsen.BuildSort{})
		hashBT, _ := buildTime(coarsen.BuildHash{})
		spgemmBT, _ := buildTime(coarsen.BuildSpGEMM{})
		rows = append(rows, Table2Row{
			Name:        inst.Name,
			Skewed:      inst.Skewed,
			Tc:          sortTotal,
			GrCoPct:     100 * float64(sortBT) / float64(sortTotal),
			HashRatio:   float64(hashBT) / float64(sortBT),
			SpGEMMRatio: float64(spgemmBT) / float64(sortBT),
			Stalled:     stalled,
		})
	}
	return rows
}

// HECVariantRow compares the three HEC parallelizations (Section IV.A).
type HECVariantRow struct {
	Name                  string
	Skewed                bool
	THEC                  time.Duration
	HEC2Ratio, HEC3Ratio  float64 // t_variant / t_HEC
	LevHEC, LevHEC2       int
	LevHEC3               int
	FirstTwoPassPct       float64 // % of level-1 vertices mapped in two passes
	SecondLevelTwoPassPct float64
}

// HECVariants measures HEC vs HEC2 vs HEC3 and the pass statistics the
// paper reports (99.4% / 96.7% of vertices mapped within two passes).
func HECVariants(opt Options) []HECVariantRow {
	runs := opt.runs()
	workers := opt.workers()
	var rows []HECVariantRow
	for _, inst := range opt.Suite() {
		g := inst.Graph
		timeOf := func(m coarsen.Mapper) (time.Duration, int, *coarsen.Hierarchy) {
			var h *coarsen.Hierarchy
			t := medianDuration(runs, func() {
				var err error
				h, err = hierarchyFor(g, m, coarsen.BuildSort{}, workers, opt.seed())
				if err != nil {
					panic(err)
				}
			})
			return t, h.Levels(), h
		}
		tHEC, lHEC, hHEC := timeOf(coarsen.HEC{})
		tHEC2, lHEC2, _ := timeOf(coarsen.HEC2{})
		tHEC3, lHEC3, _ := timeOf(coarsen.HEC3{})
		row := HECVariantRow{
			Name: inst.Name, Skewed: inst.Skewed,
			THEC:      tHEC,
			HEC2Ratio: float64(tHEC2) / float64(tHEC),
			HEC3Ratio: float64(tHEC3) / float64(tHEC),
			LevHEC:    lHEC, LevHEC2: lHEC2, LevHEC3: lHEC3,
		}
		pct := func(level int) float64 {
			if level >= len(hHEC.Stats) {
				return 0
			}
			st := hHEC.Stats[level]
			var firstTwo, total int64
			for i, c := range st.PassMapped {
				if i < 2 {
					firstTwo += c
				}
				total += c
			}
			if total == 0 {
				return 0
			}
			return 100 * float64(firstTwo) / float64(total)
		}
		row.FirstTwoPassPct = pct(0)
		row.SecondLevelTwoPassPct = pct(1)
		rows = append(rows, row)
	}
	return rows
}

// Table4Row compares coarse-mapping methods (Table IV).
type Table4Row struct {
	Name   string
	Skewed bool
	// Ratios t_alt / t_HEC; 0 marks a skipped/failed run (paper's OOM).
	HEMRatio, MtMetisRatio, GOSHRatio, MIS2Ratio float64
	// Levels per method.
	LevHEC, LevHEM, LevMtMetis, LevGOSH, LevMIS2 int
	// Average coarsening ratios for HEC and mt-Metis coarsening.
	CrHEC, CrMtMetis float64
	// Stalls names the methods whose hierarchy ended in a mapping stall,
	// instead of silently dropping Hierarchy.Stalled.
	Stalls []string
}

// Table4 measures the alternative mapping methods against HEC with
// sort-based construction.
func Table4(opt Options) []Table4Row {
	runs := opt.runs()
	workers := opt.workers()
	var rows []Table4Row
	for _, inst := range opt.Suite() {
		g := inst.Graph
		var stalls []string
		measure := func(m coarsen.Mapper) (time.Duration, int, float64) {
			var h *coarsen.Hierarchy
			t := medianDuration(runs, func() {
				var err error
				h, err = hierarchyFor(g, m, coarsen.BuildSort{}, workers, opt.seed())
				if err != nil {
					panic(err)
				}
			})
			if h.Stalled {
				stalls = append(stalls, m.Name())
			}
			return t, h.Levels(), h.CoarseningRatio()
		}
		tHEC, lHEC, crHEC := measure(coarsen.HEC{})
		tHEM, lHEM, _ := measure(coarsen.HEM{})
		tMt, lMt, crMt := measure(coarsen.TwoHop{})
		tGOSH, lGOSH, _ := measure(coarsen.GOSH{})
		tMIS2, lMIS2, _ := measure(coarsen.MIS2{})
		rows = append(rows, Table4Row{
			Name: inst.Name, Skewed: inst.Skewed,
			HEMRatio:     float64(tHEM) / float64(tHEC),
			MtMetisRatio: float64(tMt) / float64(tHEC),
			GOSHRatio:    float64(tGOSH) / float64(tHEC),
			MIS2Ratio:    float64(tMIS2) / float64(tHEC),
			LevHEC:       lHEC, LevHEM: lHEM, LevMtMetis: lMt, LevGOSH: lGOSH, LevMIS2: lMIS2,
			CrHEC: crHEC, CrMtMetis: crMt,
			Stalls: stalls,
		})
	}
	return rows
}

// GOSHHECRow compares the paper's new GOSH/HEC hybrid against plain GOSH
// (Section IV.B: "the algorithm based on GOSH and HEC is 1.46× faster
// than GOSH ... and also results in 1.18× lower levels").
type GOSHHECRow struct {
	Name      string
	Skewed    bool
	TimeRatio float64 // t_GOSH / t_GOSHHEC (> 1 means the hybrid is faster)
	LevGOSH   int
	LevHybrid int
}

// GOSHHECStudy measures GOSH vs GOSHHEC over the suite.
func GOSHHECStudy(opt Options) []GOSHHECRow {
	runs := opt.runs()
	workers := opt.workers()
	var rows []GOSHHECRow
	for _, inst := range opt.Suite() {
		g := inst.Graph
		measure := func(m coarsen.Mapper) (time.Duration, int) {
			var h *coarsen.Hierarchy
			t := medianDuration(runs, func() {
				var err error
				h, err = hierarchyFor(g, m, coarsen.BuildSort{}, workers, opt.seed())
				if err != nil {
					panic(err)
				}
			})
			return t, h.Levels()
		}
		tG, lG := measure(coarsen.GOSH{})
		tH, lH := measure(coarsen.GOSHHEC{})
		rows = append(rows, GOSHHECRow{
			Name: inst.Name, Skewed: inst.Skewed,
			TimeRatio: float64(tG) / float64(tH),
			LevGOSH:   lG, LevHybrid: lH,
		})
	}
	return rows
}

// Table5Row reports multilevel spectral bisection with different
// coarsening methods (Table V).
type Table5Row struct {
	Name   string
	Skewed bool
	Time   time.Duration // total partitioning time with HEC coarsening
	CoaPct float64       // % of time in coarsening
	Cut    int64         // edge cut with HEC coarsening (median)
	// Cut ratios cut_alt / cut_HEC for HEM and mt-Metis (two-hop)
	// coarsening under the same spectral refinement.
	HEMCutRatio, MtMetisCutRatio float64
}

// Table5 runs spectral bisection on every suite graph with HEC, HEM, and
// two-hop coarsening.
func Table5(opt Options) []Table5Row {
	runs := opt.runs()
	workers := opt.workers()
	var rows []Table5Row
	for _, inst := range opt.Suite() {
		g := inst.Graph
		spectral := func(m coarsen.Mapper) (int64, time.Duration, float64) {
			cuts := make([]int64, 0, runs)
			var elapsed, coa time.Duration
			for r := 0; r < runs; r++ {
				b := &partition.SpectralBisector{
					Coarsener: coarsen.Coarsener{Mapper: m, Builder: coarsen.BuildSort{}, Seed: opt.seed() + uint64(r), Workers: workers},
					Fiedler:   partition.FiedlerOptions{MaxIter: 300, Workers: workers},
					Seed:      opt.seed() + uint64(r),
				}
				res, err := b.Bisect(g)
				if err != nil {
					panic(err)
				}
				cuts = append(cuts, res.Cut)
				elapsed += res.TotalTime()
				coa += res.CoarsenTime
			}
			return medianInt64(cuts), elapsed / time.Duration(runs), 100 * float64(coa) / float64(elapsed)
		}
		cutHEC, tHEC, coaPct := spectral(coarsen.HEC{})
		cutHEM, _, _ := spectral(coarsen.HEM{})
		cutMt, _, _ := spectral(coarsen.TwoHop{})
		rows = append(rows, Table5Row{
			Name: inst.Name, Skewed: inst.Skewed,
			Time: tHEC, CoaPct: coaPct, Cut: cutHEC,
			HEMCutRatio:     ratio64(cutHEM, cutHEC),
			MtMetisCutRatio: ratio64(cutMt, cutHEC),
		})
	}
	return rows
}

// Table6Row compares FM-refined bisection against the alternatives
// (Table VI).
type Table6Row struct {
	Name   string
	Skewed bool
	// Cut is the edge cut of FM + parallel HEC coarsening (the paper's
	// FM+GPU-HEC column; full parallelism plays the GPU role).
	Cut int64
	// Ratios cut_alt / Cut.
	SeqHECRatio   float64 // FM + single-worker HEC (the paper's FM+CPU-HEC)
	SpectralRatio float64 // spectral + HEC (Table V pipeline)
	MetisRatio    float64 // Metis-style baseline (HEMSeq + GGG + FM)
	MtMetisRatio  float64 // mt-Metis-style baseline (TwoHop + GGG + FM)
	// SpectralVsMtMetisTime is t_spectral+HEC / t_mtMetis-style.
	SpectralVsMtMetisTime float64
}

// Table6 measures the FM pipelines and baselines.
func Table6(opt Options) []Table6Row {
	runs := opt.runs()
	workers := opt.workers()
	var rows []Table6Row
	for _, inst := range opt.Suite() {
		g := inst.Graph
		fmCut := func(b *partition.FMBisector) (int64, time.Duration) {
			cuts := make([]int64, 0, runs)
			var elapsed time.Duration
			for r := 0; r < runs; r++ {
				b.Seed = opt.seed() + uint64(r)
				b.Coarsener.Seed = b.Seed
				res, err := b.Bisect(g)
				if err != nil {
					panic(err)
				}
				cuts = append(cuts, res.Cut)
				elapsed += res.TotalTime()
			}
			return medianInt64(cuts), elapsed / time.Duration(runs)
		}
		cutPar, _ := fmCut(partition.NewHECFM(opt.seed(), workers))
		cutSeq, _ := fmCut(partition.NewHECFM(opt.seed(), 1))
		cutMetis, _ := fmCut(partition.NewMetisLike(opt.seed()))
		cutMt, tMt := fmCut(partition.NewMtMetisLike(opt.seed(), workers))

		// Spectral pipeline (cut + time) for the ratio columns.
		sp := &partition.SpectralBisector{
			Coarsener: coarsen.Coarsener{Mapper: coarsen.HEC{}, Builder: coarsen.BuildSort{}, Seed: opt.seed(), Workers: workers},
			Fiedler:   partition.FiedlerOptions{MaxIter: 300, Workers: workers},
			Seed:      opt.seed(),
		}
		var cutSp int64
		var tSp time.Duration
		{
			cuts := make([]int64, 0, runs)
			var elapsed time.Duration
			for r := 0; r < runs; r++ {
				sp.Seed = opt.seed() + uint64(r)
				sp.Coarsener.Seed = sp.Seed
				res, err := sp.Bisect(g)
				if err != nil {
					panic(err)
				}
				cuts = append(cuts, res.Cut)
				elapsed += res.TotalTime()
			}
			cutSp = medianInt64(cuts)
			tSp = elapsed / time.Duration(runs)
		}

		rows = append(rows, Table6Row{
			Name: inst.Name, Skewed: inst.Skewed,
			Cut:                   cutPar,
			SeqHECRatio:           ratio64(cutSeq, cutPar),
			SpectralRatio:         ratio64(cutSp, cutPar),
			MetisRatio:            ratio64(cutMetis, cutPar),
			MtMetisRatio:          ratio64(cutMt, cutPar),
			SpectralVsMtMetisTime: float64(tSp) / float64(tMt),
		})
	}
	return rows
}

// BuilderShootoutRow compares every registered construction strategy on
// one graph (construction-time ratios to the sort default).
type BuilderShootoutRow struct {
	Name   string
	Skewed bool
	TSort  time.Duration
	// Ratios[builder] = t_builder / t_sort for every non-sort builder.
	Ratios map[string]float64
}

// BuilderShootout measures every registered construction strategy — the
// paper's sort/hash/SpGEMM/global-sort comparison extended to the
// segmented sort and the adaptive auto policy.
func BuilderShootout(opt Options) []BuilderShootoutRow {
	var rows []BuilderShootoutRow
	for _, inst := range opt.Suite() {
		row := BuilderShootoutRow{Name: inst.Name, Skewed: inst.Skewed, Ratios: map[string]float64{}}
		var tSort time.Duration
		for _, name := range coarsen.BuilderNames() {
			b, err := coarsen.BuilderByName(name)
			if err != nil {
				panic(err)
			}
			t := medianBuildTime(inst.Graph, b, opt)
			if name == "sort" {
				tSort = t
				row.TSort = t
				continue
			}
			row.Ratios[name] = float64(t) / float64(tSort)
		}
		rows = append(rows, row)
	}
	return rows
}

// ConstructBenchRow reports one builder on one graph: a single isolated
// construction level (HEC mapping precomputed and excluded) with a fresh
// workspace per run versus one workspace reused across runs. The reuse
// ratio is the steady-state payoff of the level arena in Coarsener.Run.
type ConstructBenchRow struct {
	Graph   string
	Skewed  bool
	Builder string
	// TFresh/TReused are median times for one Build with a fresh versus a
	// reused Workspace.
	TFresh  time.Duration
	TReused time.Duration
	// Reuse = TFresh / TReused.
	Reuse float64
}

// ConstructBench isolates coarse-graph construction per builder — the
// construction column of Tables II/III — and quantifies the two-phase
// scatter workspace reuse. Runs on the skewed representatives by default;
// restrict or extend with Options.Only.
func ConstructBench(opt Options) []ConstructBenchRow {
	runs := opt.runs()
	workers := opt.workers()
	sel := opt
	if len(sel.Only) == 0 {
		sel.Only = []string{"kron21", "ppa"}
	}
	var rows []ConstructBenchRow
	for _, inst := range sel.Suite() {
		g := inst.Graph
		g.MaterializeVWgt()
		m, err := coarsen.HEC{}.Map(g, sel.seed(), workers)
		if err != nil {
			panic(err)
		}
		for _, name := range coarsen.BuilderNames() {
			b, err := coarsen.BuilderByName(name)
			if err != nil {
				panic(err)
			}
			row := ConstructBenchRow{Graph: inst.Name, Skewed: inst.Skewed, Builder: name}
			row.TFresh = medianDuration(runs, func() {
				if _, err := b.Build(g, m, workers); err != nil {
					panic(err)
				}
			})
			ws := coarsen.NewWorkspace()
			// Warm the arena outside the measurement.
			if _, err := b.BuildWith(ws, g, m, workers); err != nil {
				panic(err)
			}
			row.TReused = medianDuration(runs, func() {
				if _, err := b.BuildWith(ws, g, m, workers); err != nil {
					panic(err)
				}
			})
			if row.TReused > 0 {
				row.Reuse = float64(row.TFresh) / float64(row.TReused)
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// ratio64 returns a/b as float, 0 when either input is non-positive
// (degenerate cuts are excluded from geometric means like the paper's OOM
// entries).
func ratio64(a, b int64) float64 {
	if a <= 0 || b <= 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func medianInt64(xs []int64) int64 {
	s := append([]int64(nil), xs...)
	for i := 1; i < len(s); i++ { // insertion sort; runs are tiny
		for j := i; j > 0 && s[j-1] > s[j]; j-- {
			s[j-1], s[j] = s[j], s[j-1]
		}
	}
	return s[len(s)/2]
}

// GroupGeoMeans computes geometric means of a selector over the regular
// and skewed halves of any row set.
func GroupGeoMeans[T any](rows []T, skewed func(T) bool, val func(T) float64) (regular, skewedMean float64) {
	var rs, ss []float64
	for _, r := range rows {
		if skewed(r) {
			ss = append(ss, val(r))
		} else {
			rs = append(rs, val(r))
		}
	}
	return geoMean(rs), geoMean(ss)
}

// instanceByName finds a suite instance (helper for focused benches).
func instanceByName(insts []gen.Instance, name string) (gen.Instance, error) {
	for _, inst := range insts {
		if inst.Name == name {
			return inst, nil
		}
	}
	return gen.Instance{}, fmt.Errorf("bench: no suite instance named %q", name)
}
