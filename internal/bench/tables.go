package bench

import (
	"time"

	"mlcg/internal/coarsen"
	"mlcg/internal/obs"
	"mlcg/internal/par"
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
	// Stalled reports that the measured hierarchy ended in a mapping stall
	// (its partial times are still included in Tc via Hierarchy.TotalTime,
	// which counts the dropped attempt).
	Stalled bool
}

// Table23 measures HEC-based coarsening with sort/hash/SpGEMM
// construction. workers selects the device role: the paper's Table II is
// the GPU (use full parallelism) and Table III the 32-core CPU (per the
// documented substitution, any second thread count; the shapes, not the
// absolute times, are the claim).
func Table23(opt Options, workers int) []Table2Row {
	var rows []Table2Row
	for _, inst := range opt.Suite() {
		g := inst.Graph
		sortC := mustCell(opt, g, coarsen.HEC{}, coarsen.BuildSort{}, workers)
		hashBT := mustCell(opt, g, coarsen.HEC{}, coarsen.BuildHash{}, workers).BuildTime()
		spgemmBT := mustCell(opt, g, coarsen.HEC{}, coarsen.BuildSpGEMM{}, workers).BuildTime()
		sortBT, sortTotal := sortC.BuildTime(), sortC.TotalTime()
		rows = append(rows, Table2Row{
			Name:        inst.Name,
			Skewed:      inst.Skewed,
			Tc:          sortTotal,
			GrCoPct:     100 * float64(sortBT) / float64(sortTotal),
			HashRatio:   float64(hashBT) / float64(sortBT),
			SpGEMMRatio: float64(spgemmBT) / float64(sortBT),
			// The mapping, and so a stall, does not depend on the builder.
			Stalled: sortC.Stalled,
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
	workers := opt.workers()
	var rows []HECVariantRow
	for _, inst := range opt.Suite() {
		g := inst.Graph
		hec := mustCell(opt, g, coarsen.HEC{}, coarsen.BuildSort{}, workers)
		hec2 := mustCell(opt, g, coarsen.HEC2{}, coarsen.BuildSort{}, workers)
		hec3 := mustCell(opt, g, coarsen.HEC3{}, coarsen.BuildSort{}, workers)
		tHEC := hec.TotalTime()
		row := HECVariantRow{
			Name: inst.Name, Skewed: inst.Skewed,
			THEC:      tHEC,
			HEC2Ratio: float64(hec2.TotalTime()) / float64(tHEC),
			HEC3Ratio: float64(hec3.TotalTime()) / float64(tHEC),
			LevHEC:    hec.Levels(), LevHEC2: hec2.Levels(), LevHEC3: hec3.Levels(),
		}
		pct := func(level int) float64 {
			if level >= len(hec.Stats) {
				return 0
			}
			st := hec.Stats[level]
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
	workers := opt.workers()
	var rows []Table4Row
	for _, inst := range opt.Suite() {
		var stalls []string
		cells := make([]cell, 5)
		for i, m := range []coarsen.Mapper{coarsen.HEC{}, coarsen.HEM{}, coarsen.TwoHop{}, coarsen.GOSH{}, coarsen.MIS2{}} {
			cells[i] = mustCell(opt, inst.Graph, m, coarsen.BuildSort{}, workers)
			if cells[i].Stalled {
				stalls = append(stalls, m.Name())
			}
		}
		hec, hem, mt, gosh, mis2 := cells[0], cells[1], cells[2], cells[3], cells[4]
		tHEC := float64(hec.TotalTime())
		rows = append(rows, Table4Row{
			Name: inst.Name, Skewed: inst.Skewed,
			HEMRatio:     float64(hem.TotalTime()) / tHEC,
			MtMetisRatio: float64(mt.TotalTime()) / tHEC,
			GOSHRatio:    float64(gosh.TotalTime()) / tHEC,
			MIS2Ratio:    float64(mis2.TotalTime()) / tHEC,
			LevHEC:       hec.Levels(), LevHEM: hem.Levels(), LevMtMetis: mt.Levels(),
			LevGOSH: gosh.Levels(), LevMIS2: mis2.Levels(),
			CrHEC: hec.CoarseningRatio(), CrMtMetis: mt.CoarseningRatio(),
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
	workers := opt.workers()
	var rows []GOSHHECRow
	for _, inst := range opt.Suite() {
		gosh := mustCell(opt, inst.Graph, coarsen.GOSH{}, coarsen.BuildSort{}, workers)
		hybrid := mustCell(opt, inst.Graph, coarsen.GOSHHEC{}, coarsen.BuildSort{}, workers)
		rows = append(rows, GOSHHECRow{
			Name: inst.Name, Skewed: inst.Skewed,
			TimeRatio: float64(gosh.TotalTime()) / float64(hybrid.TotalTime()),
			LevGOSH:   gosh.Levels(), LevHybrid: hybrid.Levels(),
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
	workers := opt.workers()
	var rows []Table5Row
	for _, inst := range opt.Suite() {
		hec := timeBisect(opt, inst.Graph, spectral(coarsen.HEC{}, workers))
		hem := timeBisect(opt, inst.Graph, spectral(coarsen.HEM{}, workers))
		mt := timeBisect(opt, inst.Graph, spectral(coarsen.TwoHop{}, workers))
		rows = append(rows, Table5Row{
			Name: inst.Name, Skewed: inst.Skewed,
			Time: hec.time, CoaPct: hec.coaPct, Cut: hec.cut,
			HEMCutRatio:     ratio64(hem.cut, hec.cut),
			MtMetisCutRatio: ratio64(mt.cut, hec.cut),
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
	workers := opt.workers()
	var rows []Table6Row
	for _, inst := range opt.Suite() {
		g := inst.Graph
		fm := timeBisect(opt, g, func(s uint64) bisector { return partition.NewHECFM(s, workers) })
		seq := timeBisect(opt, g, func(s uint64) bisector { return partition.NewHECFM(s, 1) })
		metis := timeBisect(opt, g, func(s uint64) bisector { return partition.NewMetisLike(s) })
		mt := timeBisect(opt, g, func(s uint64) bisector { return partition.NewMtMetisLike(s, workers) })
		sp := timeBisect(opt, g, spectral(coarsen.HEC{}, workers))
		rows = append(rows, Table6Row{
			Name: inst.Name, Skewed: inst.Skewed,
			Cut:                   fm.cut,
			SeqHECRatio:           ratio64(seq.cut, fm.cut),
			SpectralRatio:         ratio64(sp.cut, fm.cut),
			MetisRatio:            ratio64(metis.cut, fm.cut),
			MtMetisRatio:          ratio64(mt.cut, fm.cut),
			SpectralVsMtMetisTime: float64(sp.time) / float64(mt.time),
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
// adaptive auto policy.
func BuilderShootout(opt Options) []BuilderShootoutRow {
	workers := opt.workers()
	var rows []BuilderShootoutRow
	for _, inst := range opt.Suite() {
		row := BuilderShootoutRow{Name: inst.Name, Skewed: inst.Skewed, Ratios: map[string]float64{}}
		for _, name := range coarsen.BuilderNames() {
			b, err := coarsen.BuilderByName(name)
			if err != nil {
				panic(err)
			}
			t := mustCell(opt, inst.Graph, coarsen.HEC{}, b, workers).BuildTime()
			if name == "sort" {
				row.TSort = t
				continue
			}
			row.Ratios[name] = float64(t) / float64(row.TSort)
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
	ex := par.Exec{P: opt.workers(), Span: obs.Ambient()}
	sel := opt
	if len(sel.Only) == 0 {
		sel.Only = []string{"kron21", "ppa"}
	}
	var rows []ConstructBenchRow
	for _, inst := range sel.Suite() {
		g := inst.Graph
		g.MaterializeVWgt()
		m, err := coarsen.HEC{}.Map(g, sel.seed(), ex)
		if err != nil {
			panic(err)
		}
		for _, name := range coarsen.BuilderNames() {
			b, err := coarsen.BuilderByName(name)
			if err != nil {
				panic(err)
			}
			row := ConstructBenchRow{Graph: inst.Name, Skewed: inst.Skewed, Builder: name}
			if row.TFresh, _, err = medianOf(runs, func() error {
				_, err := b.Build(g, m, ex)
				return err
			}); err != nil {
				panic(err)
			}
			ws := coarsen.NewWorkspace()
			// Warm the arena outside the measurement.
			if _, err := b.BuildWith(ws, g, m, ex); err != nil {
				panic(err)
			}
			if row.TReused, _, err = medianOf(runs, func() error {
				_, err := b.BuildWith(ws, g, m, ex)
				return err
			}); err != nil {
				panic(err)
			}
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
