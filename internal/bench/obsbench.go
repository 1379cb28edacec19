package bench

import (
	"time"

	"mlcg/internal/obs"
)

// The obs experiment records the telemetry tax itself: the per-call cost
// of obs.Histogram.Observe on the enabled and the disabled (nil receiver)
// path. It is the baseline twin of BenchmarkHistogramOverhead in
// internal/obs — the committed number that lets a review spot the record
// path growing a lock or an allocation. Both rows are nanoseconds per
// call, far under the comparator's noise floor, so they inform rather
// than gate.

// measureObsOverhead times iters Observe calls per repetition and reports
// the median per-call cost for the enabled and disabled paths.
func measureObsOverhead(runs int) []Metric {
	const iters = 1 << 20
	if runs <= 0 {
		runs = 3
	}
	row := func(name string, h *obs.Histogram) Metric {
		d, raw, _ := medianOf(runs, func() error {
			for i := 0; i < iters; i++ {
				h.Observe(time.Duration(i))
			}
			return nil
		})
		for i := range raw {
			raw[i] /= iters
		}
		return Metric{
			Experiment: "obs", Instance: "hist", Mapper: "-", Builder: "-", Workers: 1,
			Name: name, Unit: "ns", Direction: LowerIsBetter, Value: float64(d) / iters, Samples: raw,
		}
	}
	return []Metric{
		row("hist_record_ns", obs.NewHistogram("bench")),
		row("hist_record_disabled_ns", nil),
	}
}
