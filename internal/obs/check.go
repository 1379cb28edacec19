package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// CheckOptions configures trace validation.
type CheckOptions struct {
	// RequireCoarsen additionally demands the span names a multilevel
	// coarsening run must produce: a run root, at least one "level" span,
	// a "map:"/"build:" phase pair under every level, and under every
	// "build:" span the "dedup:" kernel span that every builder opens, so
	// no build's deduplication goes unattributed.
	RequireCoarsen bool
}

// CheckTrace validates a Chrome trace_event JSON stream produced by
// WriteTrace: well-formed JSON, only complete events, sane timestamps, and
// proper nesting (events on one thread form a laminar family — any two
// either disjoint or contained). Returns a descriptive error on the first
// violation.
func CheckTrace(r io.Reader, opt CheckOptions) error {
	var tf traceFile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&tf); err != nil {
		return fmt.Errorf("trace: bad JSON: %w", err)
	}
	evs := tf.TraceEvents
	if len(evs) == 0 {
		return fmt.Errorf("trace: no events")
	}
	for i, ev := range evs {
		if ev.Name == "" {
			return fmt.Errorf("trace: event %d has no name", i)
		}
		if ev.Ph != "X" {
			return fmt.Errorf("trace: event %d (%s) has phase %q, want complete event \"X\"", i, ev.Name, ev.Ph)
		}
		if ev.Ts < 0 || ev.Dur < 0 {
			return fmt.Errorf("trace: event %d (%s) has negative time (ts=%v dur=%v)", i, ev.Name, ev.Ts, ev.Dur)
		}
	}

	// Nesting: sort by (start, -end) and sweep with a stack of end times.
	// Two spans on the same tid must be disjoint or nested; a partial
	// overlap means the tree was exported wrong. A small tolerance absorbs
	// microsecond rounding in the export.
	const eps = 1.5 // µs
	type iv struct {
		name       string
		start, end float64
	}
	byTid := map[int][]iv{}
	for _, ev := range evs {
		byTid[ev.Tid] = append(byTid[ev.Tid], iv{ev.Name, ev.Ts, ev.Ts + ev.Dur})
	}
	for tid, ivs := range byTid {
		sort.Slice(ivs, func(a, b int) bool {
			if ivs[a].start != ivs[b].start {
				return ivs[a].start < ivs[b].start
			}
			return ivs[a].end > ivs[b].end
		})
		var stack []iv
		for _, v := range ivs {
			for len(stack) > 0 && stack[len(stack)-1].end <= v.start+eps {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 && v.end > stack[len(stack)-1].end+eps {
				return fmt.Errorf("trace: tid %d: span %q [%.1f, %.1f] partially overlaps %q [%.1f, %.1f]",
					tid, v.name, v.start, v.end, stack[len(stack)-1].name,
					stack[len(stack)-1].start, stack[len(stack)-1].end)
			}
			stack = append(stack, v)
		}
	}

	if opt.RequireCoarsen {
		var levels, maps, builds int
		for _, ev := range evs {
			switch {
			case strings.HasPrefix(ev.Name, "level "):
				levels++
			case strings.HasPrefix(ev.Name, "map:"):
				maps++
			case strings.HasPrefix(ev.Name, "build:"):
				builds++
			}
		}
		if levels == 0 {
			return fmt.Errorf("trace: no level spans (coarsening trace expected)")
		}
		if maps < levels {
			return fmt.Errorf("trace: %d level spans but only %d map phases", levels, maps)
		}
		if builds < levels {
			return fmt.Errorf("trace: %d level spans but only %d build phases", levels, builds)
		}
		// After the sort, the spans a build contains follow it and start
		// before it ends.
		for _, ivs := range byTid {
			for i, b := range ivs {
				if !strings.HasPrefix(b.name, "build:") {
					continue
				}
				j := i + 1
				for j < len(ivs) && ivs[j].start < b.end && !strings.HasPrefix(ivs[j].name, "dedup:") {
					j++
				}
				if j == len(ivs) || ivs[j].start >= b.end {
					return fmt.Errorf("trace: span %q [%.1f, %.1f] has no dedup kernel span under it", b.name, b.start, b.end)
				}
			}
		}
	}
	return nil
}

// CheckTraceFile runs CheckTrace on a file.
func CheckTraceFile(path string, opt CheckOptions) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return CheckTrace(f, opt)
}
