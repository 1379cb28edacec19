package bench

import (
	"fmt"
	"io"
	"strings"

	"mlcg/internal/coarsen"
)

// FormatTable1 prints the workload collection in Table I's layout.
func FormatTable1(w io.Writer, rows []Table1Row) {
	fmt.Fprintf(w, "Table I analog: synthetic workload collection\n")
	fmt.Fprintf(w, "%-14s %-6s %10s %10s %10s  %s\n", "Graph", "Domain", "m", "n", "Δ/(2m/n)", "Generator")
	printGroup := func(skewed bool, label string) {
		fmt.Fprintf(w, "-- %s --\n", label)
		for _, r := range rows {
			if r.Skewed == skewed {
				fmt.Fprintf(w, "%-14s %-6s %10d %10d %10.1f  %s\n", r.Name, r.Domain, r.M, r.N, r.Skew, r.Generator)
			}
		}
	}
	printGroup(false, "regular")
	printGroup(true, "skewed-degree")
}

// FormatTable23 prints Tables II/III.
func FormatTable23(w io.Writer, rows []Table2Row, device string) {
	fmt.Fprintf(w, "HEC coarsening, %s role: total time, %%time in construction (sort), alt/sort construction ratios\n", device)
	fmt.Fprintf(w, "%-14s %9s %7s %9s %9s\n", "Graph", "t_c(s)", "%GrCo", "Hashing", "SpGEMM")
	emit := func(skewed bool, label string) {
		for _, r := range rows {
			if r.Skewed == skewed {
				mark := ""
				if r.Stalled {
					mark = "  [stalled]"
				}
				fmt.Fprintf(w, "%-14s %9.3f %7.0f %9.2f %9.2f%s\n",
					r.Name, r.Tc.Seconds(), r.GrCoPct, r.HashRatio, r.SpGEMMRatio, mark)
			}
		}
		sel := func(f func(Table2Row) float64) float64 {
			reg, sk := GroupGeoMeans(rows, func(r Table2Row) bool { return r.Skewed }, f)
			if skewed {
				return sk
			}
			return reg
		}
		fmt.Fprintf(w, "%-14s %9s %7.0f %9.2f %9.2f   <- geomean %s\n", "GeoMean",
			"", sel(func(r Table2Row) float64 { return r.GrCoPct }),
			sel(func(r Table2Row) float64 { return r.HashRatio }),
			sel(func(r Table2Row) float64 { return r.SpGEMMRatio }), label)
	}
	emit(false, "regular")
	emit(true, "skewed")
}

// FormatHECVariants prints the Section IV.A variant comparison.
func FormatHECVariants(w io.Writer, rows []HECVariantRow) {
	fmt.Fprintf(w, "HEC parallelization variants (t_variant/t_HEC, levels, %% mapped in 2 passes)\n")
	fmt.Fprintf(w, "%-14s %9s %7s %7s %5s %5s %5s %7s %7s\n",
		"Graph", "tHEC(s)", "HEC2/", "HEC3/", "lHEC", "lHEC2", "lHEC3", "2p-L1%", "2p-L2%")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %9.3f %7.2f %7.2f %5d %5d %5d %7.1f %7.1f\n",
			r.Name, r.THEC.Seconds(), r.HEC2Ratio, r.HEC3Ratio,
			r.LevHEC, r.LevHEC2, r.LevHEC3, r.FirstTwoPassPct, r.SecondLevelTwoPassPct)
	}
	reg2, sk2 := GroupGeoMeans(rows, func(r HECVariantRow) bool { return r.Skewed },
		func(r HECVariantRow) float64 { return r.HEC2Ratio })
	reg3, sk3 := GroupGeoMeans(rows, func(r HECVariantRow) bool { return r.Skewed },
		func(r HECVariantRow) float64 { return r.HEC3Ratio })
	fmt.Fprintf(w, "GeoMean t ratios: HEC2 %.2f/%.2f  HEC3 %.2f/%.2f (regular/skewed)\n", reg2, sk2, reg3, sk3)
}

// FormatTable4 prints Table IV.
func FormatTable4(w io.Writer, rows []Table4Row) {
	fmt.Fprintf(w, "Coarsening method comparison (t_alt/t_HEC, levels l, coarsening ratio cr)\n")
	fmt.Fprintf(w, "%-14s | %6s %8s %6s %6s | %4s %4s %5s %5s %5s | %6s %6s\n",
		"Graph", "HEM", "mtMetis", "GOSH", "MIS2", "lHEC", "lHEM", "lMt", "lGOSH", "lMIS2", "crHEC", "crMt")
	emit := func(skewed bool, label string) {
		for _, r := range rows {
			if r.Skewed == skewed {
				mark := ""
				if len(r.Stalls) > 0 {
					mark = "  [stalled: " + strings.Join(r.Stalls, ",") + "]"
				}
				fmt.Fprintf(w, "%-14s | %6.2f %8.2f %6.2f %6.2f | %4d %4d %5d %5d %5d | %6.2f %6.2f%s\n",
					r.Name, r.HEMRatio, r.MtMetisRatio, r.GOSHRatio, r.MIS2Ratio,
					r.LevHEC, r.LevHEM, r.LevMtMetis, r.LevGOSH, r.LevMIS2,
					r.CrHEC, r.CrMtMetis, mark)
			}
		}
		sel := func(f func(Table4Row) float64) float64 {
			reg, sk := GroupGeoMeans(rows, func(r Table4Row) bool { return r.Skewed }, f)
			if skewed {
				return sk
			}
			return reg
		}
		fmt.Fprintf(w, "%-14s | %6.2f %8.2f %6.2f %6.2f |%31s| %6.2f %6.2f  <- geomean %s\n", "GeoMean",
			sel(func(r Table4Row) float64 { return r.HEMRatio }),
			sel(func(r Table4Row) float64 { return r.MtMetisRatio }),
			sel(func(r Table4Row) float64 { return r.GOSHRatio }),
			sel(func(r Table4Row) float64 { return r.MIS2Ratio }), "",
			sel(func(r Table4Row) float64 { return r.CrHEC }),
			sel(func(r Table4Row) float64 { return r.CrMtMetis }), label)
	}
	emit(false, "regular")
	emit(true, "skewed")
}

// FormatTable5 prints Table V.
func FormatTable5(w io.Writer, rows []Table5Row) {
	fmt.Fprintf(w, "Spectral bisection with different coarsening methods\n")
	fmt.Fprintf(w, "%-14s %9s %6s %12s %8s %8s\n", "Graph", "Time(s)", "%Coa", "EdgeCut", "HEM/", "mtMetis/")
	emit := func(skewed bool, label string) {
		for _, r := range rows {
			if r.Skewed == skewed {
				fmt.Fprintf(w, "%-14s %9.3f %6.0f %12d %8.2f %8.2f\n",
					r.Name, r.Time.Seconds(), r.CoaPct, r.Cut, r.HEMCutRatio, r.MtMetisCutRatio)
			}
		}
		sel := func(f func(Table5Row) float64) float64 {
			reg, sk := GroupGeoMeans(rows, func(r Table5Row) bool { return r.Skewed }, f)
			if skewed {
				return sk
			}
			return reg
		}
		fmt.Fprintf(w, "%-14s %9s %6.0f %12s %8.2f %8.2f  <- geomean %s\n", "GeoMean", "",
			sel(func(r Table5Row) float64 { return r.CoaPct }), "",
			sel(func(r Table5Row) float64 { return r.HEMCutRatio }),
			sel(func(r Table5Row) float64 { return r.MtMetisCutRatio }), label)
	}
	emit(false, "regular")
	emit(true, "skewed")
}

// FormatTable6 prints Table VI.
func FormatTable6(w io.Writer, rows []Table6Row) {
	fmt.Fprintf(w, "Multilevel bisection with FM refinement (cut ratios vs FM+parallel-HEC)\n")
	fmt.Fprintf(w, "%-14s %12s %8s %9s %7s %7s %9s\n",
		"Graph", "FM+HEC cut", "FM+seq/", "Spectral/", "Mts/", "mtMts/", "Sp/mtMts t")
	emit := func(skewed bool, label string) {
		for _, r := range rows {
			if r.Skewed == skewed {
				fmt.Fprintf(w, "%-14s %12d %8.2f %9.2f %7.2f %7.2f %9.2f\n",
					r.Name, r.Cut, r.SeqHECRatio, r.SpectralRatio, r.MetisRatio, r.MtMetisRatio,
					r.SpectralVsMtMetisTime)
			}
		}
		sel := func(f func(Table6Row) float64) float64 {
			reg, sk := GroupGeoMeans(rows, func(r Table6Row) bool { return r.Skewed }, f)
			if skewed {
				return sk
			}
			return reg
		}
		fmt.Fprintf(w, "%-14s %12s %8.2f %9.2f %7.2f %7.2f %9.2f  <- geomean %s\n", "GeoMean", "",
			sel(func(r Table6Row) float64 { return r.SeqHECRatio }),
			sel(func(r Table6Row) float64 { return r.SpectralRatio }),
			sel(func(r Table6Row) float64 { return r.MetisRatio }),
			sel(func(r Table6Row) float64 { return r.MtMetisRatio }),
			sel(func(r Table6Row) float64 { return r.SpectralVsMtMetisTime }), label)
	}
	emit(false, "regular")
	emit(true, "skewed")
}

// FormatFig1 prints the Fig 1 per-method one-level summary.
func FormatFig1(w io.Writer, rows []Fig1Row) {
	fmt.Fprintf(w, "Fig 1 analog: one level of coarsening on the 16-vertex demo graph\n")
	fmt.Fprintf(w, "%-10s %6s %9s %12s\n", "Method", "nc", "coarse m", "max agg size")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %6d %9d %12d\n", r.Method, r.NC, r.CoarseM, r.MaxAggSize)
	}
}

// FormatFig2 prints the heavy-edge classification.
func FormatFig2(w io.Writer, res Fig2Result) {
	fmt.Fprintf(w, "Fig 2 analog: heavy-edge classification (create/inherit/skip)\n")
	fmt.Fprintf(w, "demo graph: create=%d inherit=%d skip=%d (nc=%d)\n",
		res.Demo.Counts[coarsen.CreateEdge], res.Demo.Counts[coarsen.InheritEdge],
		res.Demo.Counts[coarsen.SkipEdge], res.Demo.NC)
	fmt.Fprintf(w, "%-14s %10s %10s %10s\n", "Graph", "create", "inherit", "skip")
	for _, r := range res.SuiteRows {
		fmt.Fprintf(w, "%-14s %10d %10d %10d\n", r.Name, r.Create, r.Inherit, r.Skip)
	}
}

// FormatFig3 prints all three Fig 3 panels.
func FormatFig3(w io.Writer, rates []Fig3RateRow, speedups []Fig3SpeedupRow, weak []Fig3WeakRow) {
	fmt.Fprintf(w, "Fig 3 left: HEC coarsening performance rate ((2m+n)/s)\n")
	fmt.Fprintf(w, "%-14s %12s %14s\n", "Graph", "size", "rate")
	for _, r := range rates {
		fmt.Fprintf(w, "%-14s %12d %14.3e\n", r.Name, r.Size, r.Rate)
	}
	fmt.Fprintf(w, "\nFig 3 center: parallel over serial speedup (device-vs-host analog)\n")
	fmt.Fprintf(w, "%-14s %10s %10s %9s\n", "Graph", "t_serial", "t_par", "speedup")
	var all []float64
	for _, r := range speedups {
		fmt.Fprintf(w, "%-14s %10.3f %10.3f %9.2f\n",
			r.Name, r.TSerial.Seconds(), r.TDevice.Seconds(), r.Speedup)
		all = append(all, r.Speedup)
	}
	fmt.Fprintf(w, "geomean speedup: %.2f\n", geoMean(all))
	fmt.Fprintf(w, "\nFig 3 right: weak scaling (rate per family and scale)\n")
	fmt.Fprintf(w, "%-10s %6s %12s %14s\n", "Family", "scale", "size", "rate")
	for _, r := range weak {
		fmt.Fprintf(w, "%-10s %6d %12d %14.3e\n", r.Family, r.Scale, r.Size, r.Rate)
	}
}

// FormatGOSHHEC prints the GOSH vs GOSHHEC study.
func FormatGOSHHEC(w io.Writer, rows []GOSHHECRow) {
	fmt.Fprintf(w, "GOSH vs the paper's GOSH/HEC hybrid (t_GOSH/t_GOSHHEC, levels)\n")
	fmt.Fprintf(w, "%-14s %10s %7s %8s\n", "Graph", "t ratio", "lGOSH", "lHybrid")
	var ratios, levRatios []float64
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %10.2f %7d %8d\n", r.Name, r.TimeRatio, r.LevGOSH, r.LevHybrid)
		ratios = append(ratios, r.TimeRatio)
		if r.LevHybrid > 0 {
			levRatios = append(levRatios, float64(r.LevGOSH)/float64(r.LevHybrid))
		}
	}
	fmt.Fprintf(w, "geomean: hybrid %.2fx faster, %.2fx fewer levels (paper: 1.46x, 1.18x)\n",
		geoMean(ratios), geoMean(levRatios))
}

// FormatShootout prints the all-builders comparison (construction-time
// ratios to the sort default; >1 means sort wins), one column per
// registered builder other than sort.
func FormatShootout(w io.Writer, rows []BuilderShootoutRow) {
	var names []string
	for _, n := range coarsen.BuilderNames() {
		if n != "sort" {
			names = append(names, n)
		}
	}
	fmt.Fprintf(w, "Construction strategy shootout (t_builder / t_sort)\n")
	fmt.Fprintf(w, "%-14s %9s", "Graph", "t_sort(s)")
	for _, n := range names {
		fmt.Fprintf(w, " %10s", n)
	}
	fmt.Fprintln(w)
	emit := func(skewed bool, label string) {
		for _, r := range rows {
			if r.Skewed != skewed {
				continue
			}
			fmt.Fprintf(w, "%-14s %9.3f", r.Name, r.TSort.Seconds())
			for _, n := range names {
				fmt.Fprintf(w, " %10.2f", r.Ratios[n])
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "%-14s %9s", "GeoMean", "")
		for _, n := range names {
			reg, sk := GroupGeoMeans(rows, func(r BuilderShootoutRow) bool { return r.Skewed },
				func(r BuilderShootoutRow) float64 { return r.Ratios[n] })
			v := reg
			if skewed {
				v = sk
			}
			fmt.Fprintf(w, " %10.2f", v)
		}
		fmt.Fprintf(w, "   <- geomean %s\n", label)
	}
	emit(false, "regular")
	emit(true, "skewed")
}

// FormatConstructBench prints the isolated construction benchmark with the
// workspace-reuse ratio.
func FormatConstructBench(w io.Writer, rows []ConstructBenchRow) {
	fmt.Fprintf(w, "Isolated construction (one level, HEC mapping precomputed)\n")
	fmt.Fprintf(w, "%-14s %-12s %12s %12s %8s\n", "Graph", "Builder", "fresh(ms)", "reused(ms)", "reuse x")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %-12s %12.3f %12.3f %8.2f\n",
			r.Graph, r.Builder,
			float64(r.TFresh.Microseconds())/1000,
			float64(r.TReused.Microseconds())/1000,
			r.Reuse)
	}
}

// FormatSkewSweep prints the degree-skew sweep.
func FormatSkewSweep(w io.Writer, rows []SkewRow) {
	fmt.Fprintf(w, "Degree-skew sweep (configuration model, equal n): coarsening vs tail exponent\n")
	fmt.Fprintf(w, "%8s %10s %8s %8s %10s\n", "gamma", "skew", "crHEC", "%GrCo", "hash/sort")
	for _, r := range rows {
		fmt.Fprintf(w, "%8.2f %10.1f %8.2f %8.0f %10.2f\n",
			r.Gamma, r.Skew, r.CrHEC, r.GrCoPct, r.HashRatio)
	}
}

// FormatPremise prints the multilevel-vs-flat FM comparison.
func FormatPremise(w io.Writer, rows []PremiseRow) {
	fmt.Fprintf(w, "Multilevel premise: flat FM vs multilevel FM (ratios > 1 mean multilevel wins)\n")
	fmt.Fprintf(w, "%-14s %12s %12s %9s %9s\n", "Graph", "flat cut", "ML cut", "cut r", "time r")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %12d %12d %9.2f %9.2f\n",
			r.Name, r.FlatCut, r.MLCut, r.CutRatio, r.TimeRatio)
	}
	reg, sk := GroupGeoMeans(rows, func(r PremiseRow) bool { return r.Skewed },
		func(r PremiseRow) float64 { return r.CutRatio })
	fmt.Fprintf(w, "geomean cut ratio: %.2f regular / %.2f skewed\n", reg, sk)
}

// FormatScaling prints the strong-scaling sweep.
func FormatScaling(w io.Writer, rows []ScalingRow) {
	fmt.Fprintf(w, "Strong scaling: HEC coarsening time by worker count\n")
	fmt.Fprintf(w, "%-14s %8s %10s %9s\n", "Graph", "workers", "t_c(s)", "speedup")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %8d %10.3f %9.2f\n", r.Name, r.Workers, r.Tc.Seconds(), r.Speedup)
	}
}

// FormatDedupAblation prints the one-sided dedup ablation.
func FormatDedupAblation(w io.Writer, rows []DedupAblationRow) {
	fmt.Fprintf(w, "Degree-based one-sided dedup ablation (construction time off/on)\n")
	fmt.Fprintf(w, "%-14s %10s %10s %9s\n", "Graph", "t_off(s)", "t_on(s)", "speedup")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %10.3f %10.3f %9.2f\n",
			r.Name, r.TOneOff.Seconds(), r.TOneOn.Seconds(), r.Speedup)
	}
}
