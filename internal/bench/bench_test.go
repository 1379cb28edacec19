package bench

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"mlcg/internal/coarsen"
)

// fastOpt restricts the harness to three representative graphs (two
// regular, one skewed) with one run each, keeping the tests quick while
// still exercising every code path.
func fastOpt() Options {
	return Options{Runs: 1, Workers: 2, Seed: 99, Only: []string{"channel050", "delaunay24", "ppa"}}
}

func TestGeoMean(t *testing.T) {
	if got := geoMean([]float64{2, 8}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geoMean(2,8) = %v, want 4", got)
	}
	if got := geoMean([]float64{5}); got != 5 {
		t.Errorf("geoMean(5) = %v", got)
	}
	if got := geoMean(nil); got != 0 {
		t.Errorf("geoMean(nil) = %v, want 0", got)
	}
	// Non-positive entries (OOM analogs) are skipped.
	if got := geoMean([]float64{0, 4, 0}); got != 4 {
		t.Errorf("geoMean with zeros = %v, want 4", got)
	}
}

// TestMedianHelpers checks medianOf's contract without assuming how long
// a call takes: f runs exactly runs times, raw holds one sample per call,
// the result is the middle of the sorted samples in whatever order they
// came back, and a failing call k ends the loop with its error after k
// calls.
func TestMedianHelpers(t *testing.T) {
	if m := medianInt64([]int64{5, 1, 9}); m != 5 {
		t.Errorf("medianInt64 = %d, want 5", m)
	}
	if m := medianInt64([]int64{4}); m != 4 {
		t.Errorf("medianInt64 single = %d", m)
	}
	for _, runs := range []int{1, 3, 5} {
		calls := 0
		d, raw, err := medianOf(runs, func() error {
			// The sleeps only spread the samples apart; the check below
			// sorts them, so it holds in whatever order they come back.
			calls++
			time.Sleep(time.Duration(calls%3) * 200 * time.Microsecond)
			return nil
		})
		if err != nil || calls != runs || len(raw) != runs {
			t.Fatalf("runs=%d: err=%v calls=%d raw=%v", runs, err, calls, raw)
		}
		sorted := slices.Clone(raw)
		slices.Sort(sorted)
		if d != time.Duration(sorted[runs/2]) {
			t.Errorf("runs=%d: median %v is not the middle of the raw samples %v", runs, d, raw)
		}
	}
	boom := errors.New("boom")
	for k := 1; k <= 3; k++ {
		calls := 0
		_, _, err := medianOf(3, func() error {
			calls++
			if calls == k {
				return boom
			}
			return nil
		})
		if err != boom || calls != k {
			t.Errorf("failing call %d: err=%v after %d calls, want %v after %d", k, err, calls, boom, k)
		}
	}
}

func TestTimeCell(t *testing.T) {
	opt := fastOpt()
	opt.Runs = 3
	g := opt.Suite()[0].Graph
	c, err := timeCell(opt, g, coarsen.HEC{}, coarsen.BuildSort{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.totals) != 3 || c.Levels() == 0 {
		t.Fatalf("totals=%v levels=%d", c.totals, c.Levels())
	}
	// The cell is the run with the median total.
	below, above := 0, 0
	for _, tt := range c.totals {
		if tt < c.TotalTime() {
			below++
		}
		if tt > c.TotalTime() {
			above++
		}
	}
	if below > 1 || above > 1 {
		t.Errorf("cell total %v is not the median of %v", c.TotalTime(), c.totals)
	}
}

func TestRatio64(t *testing.T) {
	if r := ratio64(10, 4); r != 2.5 {
		t.Errorf("ratio = %v", r)
	}
	if r := ratio64(0, 4); r != 0 {
		t.Errorf("zero numerator should yield 0, got %v", r)
	}
	if r := ratio64(4, 0); r != 0 {
		t.Errorf("zero denominator should yield 0, got %v", r)
	}
}

func TestOptionsDefaultsAndOnly(t *testing.T) {
	var o Options
	if o.runs() != 3 || o.workers() < 1 || o.seed() == 0 {
		t.Errorf("bad defaults: runs=%d workers=%d seed=%d", o.runs(), o.workers(), o.seed())
	}
	suite := fastOpt().Suite()
	if len(suite) != 3 {
		t.Fatalf("Only filter kept %d instances, want 3", len(suite))
	}
}

func TestTable1(t *testing.T) {
	rows := Table1(fastOpt())
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.M <= 0 || r.N <= 0 || r.Skew <= 0 {
			t.Errorf("degenerate row %+v", r)
		}
	}
	var buf bytes.Buffer
	FormatTable1(&buf, rows)
	for _, want := range []string{"ppa", "regular", "skewed"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("formatted table missing %q", want)
		}
	}
}

func TestTable23(t *testing.T) {
	rows := Table23(fastOpt(), 2)
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Tc <= 0 {
			t.Errorf("%s: no time measured", r.Name)
		}
		if r.GrCoPct <= 0 || r.GrCoPct >= 100 {
			t.Errorf("%s: %%GrCo = %v out of range", r.Name, r.GrCoPct)
		}
		if r.HashRatio <= 0 || r.SpGEMMRatio <= 0 {
			t.Errorf("%s: non-positive construction ratios %+v", r.Name, r)
		}
	}
	var buf bytes.Buffer
	FormatTable23(&buf, rows, "GPU")
	if !strings.Contains(buf.String(), "GeoMean") {
		t.Error("missing geomean row")
	}
}

func TestHECVariants(t *testing.T) {
	rows := HECVariants(fastOpt())
	for _, r := range rows {
		if r.HEC2Ratio <= 0 || r.HEC3Ratio <= 0 {
			t.Errorf("%s: bad ratios %+v", r.Name, r)
		}
		if r.LevHEC <= 0 || r.LevHEC3 <= 0 {
			t.Errorf("%s: missing level counts", r.Name)
		}
		// HEC coarsens at least as aggressively as the root-heavy
		// variants on these workloads.
		if r.LevHEC > r.LevHEC2+2 || r.LevHEC > r.LevHEC3+2 {
			t.Errorf("%s: HEC needed more levels (%d) than variants (%d/%d)",
				r.Name, r.LevHEC, r.LevHEC2, r.LevHEC3)
		}
		if r.FirstTwoPassPct < 50 {
			t.Errorf("%s: only %.1f%% mapped in two passes", r.Name, r.FirstTwoPassPct)
		}
	}
	var buf bytes.Buffer
	FormatHECVariants(&buf, rows)
	if !strings.Contains(buf.String(), "GeoMean") {
		t.Error("missing geomean")
	}
}

func TestTable4(t *testing.T) {
	rows := Table4(fastOpt())
	for _, r := range rows {
		if r.HEMRatio <= 0 || r.MIS2Ratio <= 0 {
			t.Errorf("%s: bad ratios %+v", r.Name, r)
		}
		if r.CrHEC < r.CrMtMetis {
			t.Errorf("%s: HEC coarsening ratio %.2f below matching-based %.2f",
				r.Name, r.CrHEC, r.CrMtMetis)
		}
		if r.CrMtMetis > 2.01 {
			t.Errorf("%s: matching-based cr %.2f exceeds 2", r.Name, r.CrMtMetis)
		}
	}
	var buf bytes.Buffer
	FormatTable4(&buf, rows)
	if !strings.Contains(buf.String(), "mtMetis") {
		t.Error("bad header")
	}
}

func TestTable5(t *testing.T) {
	opt := fastOpt()
	opt.Only = []string{"channel050"} // one graph keeps spectral quick
	rows := Table5(opt)
	if len(rows) != 1 {
		t.Fatalf("%d rows", len(rows))
	}
	r := rows[0]
	if r.Cut <= 0 || r.Time <= 0 {
		t.Errorf("degenerate spectral row %+v", r)
	}
	if r.CoaPct <= 0 || r.CoaPct >= 100 {
		t.Errorf("%%Coa = %v", r.CoaPct)
	}
	if r.HEMCutRatio <= 0 || r.MtMetisCutRatio <= 0 {
		t.Errorf("cut ratios %+v", r)
	}
	var buf bytes.Buffer
	FormatTable5(&buf, rows)
	if !strings.Contains(buf.String(), "channel050") {
		t.Error("row missing")
	}
}

func TestTable6(t *testing.T) {
	opt := fastOpt()
	opt.Only = []string{"channel050"}
	rows := Table6(opt)
	r := rows[0]
	if r.Cut <= 0 {
		t.Fatalf("no cut measured: %+v", r)
	}
	for name, v := range map[string]float64{
		"seq": r.SeqHECRatio, "spectral": r.SpectralRatio,
		"metis": r.MetisRatio, "mtmetis": r.MtMetisRatio,
	} {
		if v <= 0 {
			t.Errorf("ratio %s = %v", name, v)
		}
	}
	var buf bytes.Buffer
	FormatTable6(&buf, rows)
	if !strings.Contains(buf.String(), "FM+HEC") {
		t.Error("bad header")
	}
}

func TestFig1AndFig2(t *testing.T) {
	rows, maps, err := Fig1(fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(coarsen.MapperNames()) || len(maps) != len(rows) {
		t.Fatalf("Fig1 has %d methods and %d mappings, want %d", len(rows), len(maps), len(coarsen.MapperNames()))
	}
	for i, r := range rows {
		if r.NC <= 0 || r.NC > 16 || maps[i].NC != r.NC {
			t.Errorf("%s: nc=%d, mapping nc=%d", r.Method, r.NC, maps[i].NC)
		}
	}
	res := Fig2(fastOpt())
	if res.Demo.NC <= 0 {
		t.Error("demo classification empty")
	}
	if len(res.SuiteRows) != 3 {
		t.Errorf("Fig2 suite rows = %d", len(res.SuiteRows))
	}
	var buf bytes.Buffer
	FormatFig1(&buf, rows)
	FormatFig2(&buf, res)
	if !strings.Contains(buf.String(), "create") {
		t.Error("Fig2 output missing classification")
	}
}

func TestFig3(t *testing.T) {
	opt := fastOpt()
	rates := Fig3Rate(opt)
	for _, r := range rates {
		if r.Rate <= 0 {
			t.Errorf("%s: rate %v", r.Name, r.Rate)
		}
	}
	speedups := Fig3Speedup(opt)
	for _, r := range speedups {
		if r.Speedup <= 0 {
			t.Errorf("%s: speedup %v", r.Name, r.Speedup)
		}
	}
	weak, err := Fig3WeakScaling(opt, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(weak) != 6 { // 3 families x 2 scales
		t.Fatalf("weak rows = %d", len(weak))
	}
	var buf bytes.Buffer
	FormatFig3(&buf, rates, speedups, weak)
	if !strings.Contains(buf.String(), "weak scaling") {
		t.Error("missing panel")
	}
}

func TestDedupAblation(t *testing.T) {
	opt := fastOpt() // only "ppa" is skewed in this subset
	rows := DedupAblation(opt)
	if len(rows) != 1 {
		t.Fatalf("rows = %d, want 1 (only the skewed instance)", len(rows))
	}
	if rows[0].Speedup <= 0 {
		t.Errorf("ablation speedup %v", rows[0].Speedup)
	}
	var buf bytes.Buffer
	FormatDedupAblation(&buf, rows)
	if !strings.Contains(buf.String(), "ppa") {
		t.Error("row missing")
	}
}

func TestSkewSweep(t *testing.T) {
	opt := fastOpt()
	rows := SkewSweep(opt, []float64{5, 2.2})
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[1].Skew <= rows[0].Skew {
		t.Errorf("heavier tail should be more skewed: %v vs %v", rows[0].Skew, rows[1].Skew)
	}
	for _, r := range rows {
		if r.CrHEC <= 1 || r.GrCoPct <= 0 || r.HashRatio <= 0 {
			t.Errorf("degenerate row %+v", r)
		}
	}
	var buf bytes.Buffer
	FormatSkewSweep(&buf, rows)
	if !strings.Contains(buf.String(), "gamma") {
		t.Error("header missing")
	}
}

func TestMultilevelPremise(t *testing.T) {
	opt := fastOpt()
	opt.Only = []string{"delaunay24"}
	rows := MultilevelPremise(opt)
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if r.FlatCut <= 0 || r.MLCut <= 0 {
		t.Fatalf("degenerate cuts %+v", r)
	}
	// On a mesh, multilevel must not lose to flat FM.
	if r.CutRatio < 0.95 {
		t.Errorf("multilevel lost to flat FM: ratio %.2f", r.CutRatio)
	}
	var buf bytes.Buffer
	FormatPremise(&buf, rows)
	if !strings.Contains(buf.String(), "delaunay24") {
		t.Error("row missing")
	}
}

func TestGOSHHECStudy(t *testing.T) {
	opt := fastOpt()
	opt.Only = []string{"channel050"}
	rows := GOSHHECStudy(opt)
	if len(rows) != 1 || rows[0].TimeRatio <= 0 {
		t.Fatalf("bad rows %+v", rows)
	}
	var buf bytes.Buffer
	FormatGOSHHEC(&buf, rows)
	if !strings.Contains(buf.String(), "paper: 1.46x") {
		t.Error("missing paper reference")
	}
}

func TestBuilderShootout(t *testing.T) {
	opt := fastOpt()
	opt.Only = []string{"channel050", "ppa"}
	rows := BuilderShootout(opt)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.TSort <= 0 {
			t.Errorf("%s: t_sort %v", r.Name, r.TSort)
		}
		if want := len(coarsen.BuilderNames()) - 1; len(r.Ratios) != want {
			t.Errorf("%s: %d ratios, want %d", r.Name, len(r.Ratios), want)
		}
		for name, v := range r.Ratios {
			if v <= 0 {
				t.Errorf("%s/%s: ratio %v", r.Name, name, v)
			}
		}
	}
	var buf bytes.Buffer
	FormatShootout(&buf, rows)
	wants := []string{"GeoMean"}
	for _, name := range coarsen.BuilderNames() {
		if name != "sort" {
			wants = append(wants, name)
		}
	}
	for _, want := range wants {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestConstructBench(t *testing.T) {
	opt := fastOpt()
	opt.Only = []string{"ppa"}
	rows := ConstructBench(opt)
	if want := len(coarsen.BuilderNames()); len(rows) != want {
		t.Fatalf("rows = %d, want one per builder (%d)", len(rows), want)
	}
	for _, r := range rows {
		if r.Graph != "ppa" || r.TFresh <= 0 || r.TReused <= 0 || r.Reuse <= 0 {
			t.Errorf("degenerate row %+v", r)
		}
	}
	var buf bytes.Buffer
	FormatConstructBench(&buf, rows)
	if !strings.Contains(buf.String(), "reuse x") {
		t.Error("header missing")
	}
}

func TestStrongScaling(t *testing.T) {
	opt := fastOpt()
	opt.Only = []string{"channel050"}
	rows := StrongScaling(opt, []int{1, 2})
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Workers != 1 || rows[1].Workers != 2 {
		t.Errorf("worker counts %d,%d", rows[0].Workers, rows[1].Workers)
	}
	if rows[0].Speedup != 1 {
		t.Errorf("baseline speedup = %v, want 1", rows[0].Speedup)
	}
	if rows[1].Speedup <= 0 {
		t.Errorf("speedup = %v", rows[1].Speedup)
	}
	var buf bytes.Buffer
	FormatScaling(&buf, rows)
	if !strings.Contains(buf.String(), "channel050") {
		t.Error("row missing")
	}
	// Default sweep covers powers of two.
	rows = StrongScaling(opt, nil)
	if len(rows) == 0 {
		t.Error("default sweep empty")
	}
}

func TestGroupGeoMeans(t *testing.T) {
	rows := []Table2Row{
		{Skewed: false, HashRatio: 2},
		{Skewed: false, HashRatio: 8},
		{Skewed: true, HashRatio: 3},
	}
	reg, sk := GroupGeoMeans(rows, func(r Table2Row) bool { return r.Skewed },
		func(r Table2Row) float64 { return r.HashRatio })
	if math.Abs(reg-4) > 1e-12 || math.Abs(sk-3) > 1e-12 {
		t.Errorf("geomeans = %v/%v, want 4/3", reg, sk)
	}
}
