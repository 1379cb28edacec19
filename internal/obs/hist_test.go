package obs_test

import (
	"sync"
	"testing"
	"time"

	"mlcg/internal/obs"
)

func TestHistogramBuckets(t *testing.T) {
	bounds := obs.HistUpperBounds()
	if len(bounds) != obs.HistBuckets-1 {
		t.Fatalf("HistUpperBounds len = %d, want %d", len(bounds), obs.HistBuckets-1)
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] != 2*bounds[i-1] {
			t.Fatalf("bounds not power-of-two spaced at %d: %v then %v", i, bounds[i-1], bounds[i])
		}
	}
	if bounds[0] != 1024e-9 {
		t.Fatalf("first bound = %v, want 1.024µs", bounds[0])
	}

	h := obs.NewHistogram("t")
	// One observation exactly on each finite bound lands in that bucket,
	// not the next one (le is inclusive).
	for i, ub := range bounds {
		h.Observe(time.Duration(ub * 1e9))
		s := h.Snapshot()
		if s.Buckets[i] == 0 {
			t.Fatalf("observation on bound %d (%v s) missed its bucket: %v", i, ub, s.Buckets)
		}
	}
	// Overflow and negative observations.
	h2 := obs.NewHistogram("t2")
	h2.Observe(time.Hour)
	h2.Observe(-time.Second)
	h2.Observe(0)
	s := h2.Snapshot()
	if s.Buckets[obs.HistBuckets-1] != 1 {
		t.Fatalf("1h observation not in +Inf bucket: %v", s.Buckets)
	}
	if s.Buckets[0] != 2 {
		t.Fatalf("zero/negative observations not clamped to first bucket: %v", s.Buckets)
	}
	if s.Count != 3 {
		t.Fatalf("count = %d, want 3", s.Count)
	}
	if s.Sum != time.Hour {
		t.Fatalf("sum = %v, want 1h (negative clamped to 0)", s.Sum)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := obs.NewHistogram("conc")
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(w+1) * time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Fatalf("count = %d, want %d", s.Count, workers*per)
	}
	wantSum := time.Duration(0)
	for w := 1; w <= workers; w++ {
		wantSum += time.Duration(w) * time.Microsecond * per
	}
	if s.Sum != wantSum {
		t.Fatalf("sum = %v, want %v", s.Sum, wantSum)
	}
}

// TestHistogramNilDisabled locks in the disabled-path discipline: a nil
// histogram records nothing and never allocates, mirroring the counter
// path's nil-check-only cost.
func TestHistogramNilDisabled(t *testing.T) {
	var h *obs.Histogram
	h.Observe(time.Second) // must not panic
	if s := h.Snapshot(); s.Count != 0 || s.Sum != 0 {
		t.Fatal("nil histogram reported observations")
	}
	if h.Name() != "" {
		t.Fatal("nil histogram has a name")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		h.Observe(time.Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("disabled (nil) Observe allocates: %v allocs/run, want 0", allocs)
	}
}

// TestHistogramRecordZeroAlloc gates the enabled record path: Observe must
// stay allocation-free so the serve hot path can record every request.
func TestHistogramRecordZeroAlloc(t *testing.T) {
	h := obs.NewHistogram("alloc")
	allocs := testing.AllocsPerRun(1000, func() {
		h.Observe(17 * time.Microsecond)
	})
	if allocs != 0 {
		t.Fatalf("enabled Observe allocates: %v allocs/run, want 0", allocs)
	}
}

// BenchmarkHistogramOverhead measures the record path both enabled and
// disabled (nil receiver). Compare with `go test -bench HistogramOverhead
// -benchmem ./internal/obs/`; mlcg-bench records the same measurement as
// the obs/hist_record_ns baseline row.
func BenchmarkHistogramOverhead(b *testing.B) {
	b.Run("enabled", func(b *testing.B) {
		h := obs.NewHistogram("bench")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Observe(time.Duration(i) * time.Nanosecond)
		}
	})
	b.Run("enabled-parallel", func(b *testing.B) {
		h := obs.NewHistogram("bench")
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				h.Observe(42 * time.Microsecond)
			}
		})
	})
	b.Run("disabled", func(b *testing.B) {
		var h *obs.Histogram
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Observe(time.Duration(i) * time.Nanosecond)
		}
	})
}
