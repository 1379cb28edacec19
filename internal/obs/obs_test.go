package obs_test

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"mlcg/internal/obs"
	"mlcg/internal/par"
)

// startTrace installs a trace and guarantees it is uninstalled at test end,
// so a failing test cannot leak an active trace into the next one.
func startTrace(t *testing.T, name string) *obs.Trace {
	t.Helper()
	tr := obs.StartTrace(name)
	if tr == nil {
		t.Fatal("StartTrace returned nil (trace already active?)")
	}
	t.Cleanup(tr.Stop)
	return tr
}

func TestSpanTreeShape(t *testing.T) {
	tr := startTrace(t, "run")
	if obs.Ambient() == nil {
		t.Fatal("Ambient() = nil with active trace")
	}
	lvl := obs.StartKernel("level 0")
	mapS := obs.StartKernel("map:hec")
	k := obs.StartKernel("classify")
	if got := obs.Ambient(); got != k {
		t.Fatalf("ambient = %q, want innermost kernel", got.Name())
	}
	k.Done()
	if got := obs.Ambient(); got != mapS {
		t.Fatalf("ambient after Done = %q, want parent", got.Name())
	}
	mapS.Done()
	lvl.Done()
	tr.Stop()
	if obs.Ambient() != nil {
		t.Fatal("Ambient() != nil after Stop")
	}

	root := tr.Root
	if root.Name() != "run" || len(root.Children()) != 1 {
		t.Fatalf("root %q has %d children, want 1", root.Name(), len(root.Children()))
	}
	l := root.Children()[0]
	if l.Name() != "level 0" || len(l.Children()) != 1 {
		t.Fatalf("level span %q children = %d", l.Name(), len(l.Children()))
	}
	m := l.Children()[0]
	if m.Name() != "map:hec" || len(m.Children()) != 1 || m.Children()[0].Name() != "classify" {
		t.Fatalf("bad phase/kernel nesting under %q", m.Name())
	}
	for _, s := range []*obs.Span{root, l, m, m.Children()[0]} {
		if s.Wall() <= 0 {
			t.Fatalf("span %q has no wall time", s.Name())
		}
	}
}

func TestStopClosesOpenSpans(t *testing.T) {
	tr := startTrace(t, "run")
	obs.StartKernel("level 0")
	obs.StartKernel("map:hem")
	tr.Stop() // both still open
	if obs.Ambient() != nil {
		t.Fatal("trace still enabled after Stop with open spans")
	}
	var walk func(s *obs.Span)
	walk = func(s *obs.Span) {
		if s.Wall() <= 0 {
			t.Errorf("span %q left open by Stop", s.Name())
		}
		for _, c := range s.Children() {
			walk(c)
		}
	}
	walk(tr.Root)
	// A second trace must be installable after Stop.
	tr2 := obs.StartTrace("run2")
	if tr2 == nil {
		t.Fatal("cannot start a new trace after Stop")
	}
	tr2.Stop()
}

func TestSingleActiveTracePerGoroutine(t *testing.T) {
	tr := startTrace(t, "run")
	if tr2 := obs.StartTrace("second"); tr2 != nil {
		tr2.Stop()
		t.Fatal("second StartTrace on the same goroutine succeeded")
	}
	tr.Stop()
}

// TestConcurrentTraces is the regression test for the process-global
// ambient/activeTrace bug: two goroutines each build their own traced span
// tree concurrently through explicit spans, and neither clobbers the other
// — every span lands in its own trace, counters stay separate, and both
// trees remain laminar. Run under -race this also exercises concurrent
// span creation for data races.
func TestConcurrentTraces(t *testing.T) {
	const rounds = 50
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := []string{"alpha", "beta"}[g]
			tr := obs.NewTrace(name)
			for i := 0; i < rounds; i++ {
				lvl := tr.Root.Child("level")
				k := lvl.Child("kernel")
				k.Add(obs.CtrCASRetry, int64(g+1))
				if k.Trace() != tr {
					errs <- fmt.Errorf("goroutine %d: kernel span in another trace", g)
					return
				}
				k.End()
				lvl.End()
			}
			tr.Stop()
			if tr.Root.Name() != name {
				errs <- fmt.Errorf("goroutine %d: root = %q", g, tr.Root.Name())
				return
			}
			if got := len(tr.Root.Children()); got != rounds {
				errs <- fmt.Errorf("goroutine %d: %d level spans, want %d", g, got, rounds)
				return
			}
			if got := tr.Root.Counters()["cas_retries"]; got != int64(rounds*(g+1)) {
				errs <- fmt.Errorf("goroutine %d: cas_retries = %d, want %d", g, got, rounds*(g+1))
				return
			}
			var buf bytes.Buffer
			if err := tr.WriteTrace(&buf); err != nil {
				errs <- err
				return
			}
			if err := obs.CheckTrace(bytes.NewReader(buf.Bytes()), obs.CheckOptions{}); err != nil {
				errs <- fmt.Errorf("goroutine %d: non-laminar trace: %v", g, err)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestContextCarriesSpan covers the server-shaped hand-off: a span created
// on one goroutine, carried through a context, and used by the goroutine
// that does the work.
func TestContextCarriesSpan(t *testing.T) {
	tr := obs.NewTrace("request")
	ctx := obs.NewContext(context.Background(), tr)
	if got := obs.SpanFromContext(ctx); got != tr.Root {
		t.Fatal("NewContext does not carry the trace's root span")
	}
	if obs.SpanFromContext(context.Background()) != nil {
		t.Fatal("SpanFromContext invented a span")
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		k := obs.SpanFromContext(ctx).Child("work")
		k.Add(obs.CtrCommit, 3)
		k.End()
	}()
	<-done
	tr.Stop()
	if got := tr.Root.Counters()["commits"]; got != 3 {
		t.Fatalf("commits = %d, want 3", got)
	}
	if obs.NewContext(context.Background(), nil) != context.Background() {
		t.Fatal("NewContext(nil) should return ctx unchanged")
	}
	if obs.ContextWithSpan(context.Background(), nil) != context.Background() {
		t.Fatal("ContextWithSpan(nil) should return ctx unchanged")
	}
}

// TestConcurrentWorkers exercises the reporting surface the way
// internal/par uses it: many workers concurrently creating child spans,
// adding busy time, and bumping counters on the span their loop was handed.
// Run under -race this is the span-nesting race test.
func TestConcurrentWorkers(t *testing.T) {
	tr := obs.NewTrace("run")
	kern := tr.Root.Child("scatter")
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				kern.BusyAdd(w, time.Microsecond)
				kern.Add(obs.CtrCASRetry, 1)
				kern.Add(obs.CtrHashProbe, 2)
			}
			c := kern.Child("worker-sub")
			c.End()
		}(w)
	}
	wg.Wait()
	kern.End()
	tr.Stop()

	busy := kern.Busy()
	if len(busy) != workers {
		t.Fatalf("busy slots = %d, want %d", len(busy), workers)
	}
	for w, b := range busy {
		if b != 100*time.Microsecond {
			t.Fatalf("worker %d busy = %v, want 100µs", w, b)
		}
	}
	if imb := kern.Imbalance(); imb < 0.99 || imb > 1.01 {
		t.Fatalf("uniform busy imbalance = %v, want ~1.0", imb)
	}
	if got := len(kern.Children()); got != workers {
		t.Fatalf("child spans = %d, want %d", got, workers)
	}
	ctrs := tr.Root.Counters()
	if ctrs["cas_retries"] != workers*100 {
		t.Fatalf("cas_retries = %d, want %d", ctrs["cas_retries"], workers*100)
	}
	if ctrs["hash_probes"] != workers*200 {
		t.Fatalf("hash_probes = %d, want %d", ctrs["hash_probes"], workers*200)
	}
}

// TestForRangesSpanNesting drives real par workers — ForRanges over a
// balanced partition, plus a static For — inside sibling kernels and
// checks that each worker's busy time lands on the span its loop was
// handed, with no cross-talk between sibling kernels. Run under -race this
// covers concurrent BusyAdd/Add on the kernel spans.
func TestForRangesSpanNesting(t *testing.T) {
	tr := obs.NewTrace("run")
	const n, p = 1 << 14, 4
	prefix := make([]int64, n+1)
	for i := 0; i <= n; i++ {
		prefix[i] = int64(i)
	}
	bounds := par.BalancedRanges(nil, prefix, p)

	sink := make([]int64, n)
	scatter := tr.Root.Child("scatter")
	par.ForRanges(bounds, scatter, func(w, lo, hi int) {
		var local int64
		for i := lo; i < hi; i++ {
			sink[i] = int64(i)
			local++
		}
		scatter.Add(obs.CtrCommit, local)
	})
	scatter.End()

	count := tr.Root.Child("count")
	par.For(n, par.Exec{P: p, Span: count}, func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			sink[i]++
		}
	})
	count.End()
	tr.Stop()

	for _, s := range []*obs.Span{scatter, count} {
		busy := s.Busy()
		if len(busy) == 0 {
			t.Fatalf("span %q recorded no worker busy time", s.Name())
		}
		var sum time.Duration
		for _, b := range busy {
			sum += b
		}
		if sum <= 0 {
			t.Fatalf("span %q busy sum = %v", s.Name(), sum)
		}
	}
	// Counter flushed inside ForRanges lands on the scatter span only.
	if got := scatter.Counters()["commits"]; got != n {
		t.Fatalf("scatter commits = %d, want %d", got, n)
	}
	if got := count.Counters()["commits"]; got != 0 {
		t.Fatalf("count span stole sibling's counter: commits = %d", got)
	}
}

// TestCounterAggregation checks that subtree totals roll up across levels:
// run-span totals equal the sum over level spans, and sibling levels do not
// bleed into each other.
func TestCounterAggregation(t *testing.T) {
	tr := obs.NewTrace("run")
	perLevel := []int64{10, 20, 30}
	for i, n := range perLevel {
		lvl := tr.Root.Child("level")
		mapS := lvl.Child("map:hec")
		mapS.Add(obs.CtrCASRetry, n)
		mapS.Add(obs.CtrRadixPass, 1)
		mapS.End()
		if got := lvl.Counters()["cas_retries"]; got != n {
			t.Fatalf("level %d cas_retries = %d, want %d", i, got, n)
		}
		lvl.End()
	}
	tr.Stop()
	totals := tr.Root.Counters()
	if totals["cas_retries"] != 60 {
		t.Fatalf("run cas_retries = %d, want 60", totals["cas_retries"])
	}
	if totals["radix_passes"] != int64(len(perLevel)) {
		t.Fatalf("run radix_passes = %d, want %d", totals["radix_passes"], len(perLevel))
	}
	dense := tr.Root.CounterTotals()
	if dense[obs.CtrCASRetry] != 60 {
		t.Fatalf("dense cas_retries = %d, want 60", dense[obs.CtrCASRetry])
	}
	// Zero counters are omitted from the map view but present in the dense
	// view.
	if _, ok := totals["fm_rollbacks"]; ok {
		t.Fatal("zero counter present in Counters() map")
	}
	if dense[obs.CtrFMRollbacks] != 0 {
		t.Fatal("dense view lost a zero counter")
	}
}

// TestObsDisabledZeroAlloc proves the disabled path allocates nothing: with
// no active trace, every hot-path entry point must be a pointer load plus a
// nil check.
func TestObsDisabledZeroAlloc(t *testing.T) {
	allocs := testing.AllocsPerRun(1000, func() {
		s := obs.StartKernel("kernel")
		s.BusyAdd(3, time.Microsecond)
		s.Add(obs.CtrCASRetry, 7)
		c := s.Child("sub")
		c.End()
		c.Done()
		s.Done()
		_ = obs.Ambient()
	})
	if allocs != 0 {
		t.Fatalf("disabled path allocates: %v allocs/run, want 0", allocs)
	}
}

func TestNilSafety(t *testing.T) {
	var s *obs.Span
	s.Done()
	s.End()
	s.Add(obs.CtrCASRetry, 1)
	s.BusyAdd(0, time.Second)
	if s.Wall() != 0 || s.Imbalance() != 0 || s.Name() != "" {
		t.Fatal("nil span reported nonzero state")
	}
	if s.Child("x") != nil || s.Busy() != nil || s.Children() != nil || s.Counters() != nil {
		t.Fatal("nil span produced non-nil derived values")
	}
	var tr *obs.Trace
	tr.Stop()
}

func TestExportersAndChecker(t *testing.T) {
	tr := startTrace(t, "coarsen gen")
	for i := 0; i < 2; i++ {
		lvl := obs.StartKernel("level 0")
		mapS := obs.StartKernel("map:hec")
		k := obs.StartKernel("classify")
		k.BusyAdd(0, time.Millisecond)
		k.BusyAdd(1, 2*time.Millisecond)
		k.Add(obs.CtrCASRetry, 5)
		k.Done()
		mapS.Done()
		b := obs.StartKernel("build:hash")
		d := obs.StartKernel("dedup:hash")
		d.Add(obs.CtrHashProbe, 11)
		d.Done()
		b.Done()
		lvl.Done()
	}
	tr.Stop()

	var trace bytes.Buffer
	if err := tr.WriteTrace(&trace); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	if err := obs.CheckTrace(bytes.NewReader(trace.Bytes()), obs.CheckOptions{RequireCoarsen: true}); err != nil {
		t.Fatalf("CheckTrace rejected a valid trace: %v", err)
	}
	got := trace.String()
	for _, want := range []string{`"ph":"X"`, "cas_retries", "hash_probes", "busy_ns", "imbalance", "map:hec", "build:hash"} {
		if !strings.Contains(got, want) {
			t.Errorf("trace JSON missing %q", want)
		}
	}

	var metrics bytes.Buffer
	if err := tr.WriteMetrics(&metrics); err != nil {
		t.Fatalf("WriteMetrics: %v", err)
	}
	dump := metrics.String()
	for _, want := range []string{"== spans ==", "== counters (whole trace) ==", "cas_retries", "fm_rollbacks", "map:hec", "imb", "== kernels (by total busy) =="} {
		if !strings.Contains(dump, want) {
			t.Errorf("metrics dump missing %q", want)
		}
	}
}

func TestCheckerRejectsBadTraces(t *testing.T) {
	cases := []struct {
		name, json string
	}{
		{"empty", `{"traceEvents":[]}`},
		{"badphase", `{"traceEvents":[{"name":"a","ph":"B","ts":0,"dur":1,"pid":1,"tid":1}]}`},
		{"noname", `{"traceEvents":[{"name":"","ph":"X","ts":0,"dur":1,"pid":1,"tid":1}]}`},
		{"negative", `{"traceEvents":[{"name":"a","ph":"X","ts":-5,"dur":1,"pid":1,"tid":1}]}`},
		{"overlap", `{"traceEvents":[
			{"name":"a","ph":"X","ts":0,"dur":100,"pid":1,"tid":1},
			{"name":"b","ph":"X","ts":50,"dur":100,"pid":1,"tid":1}]}`},
		{"notjson", `{"traceEvents":`},
	}
	for _, c := range cases {
		if err := obs.CheckTrace(strings.NewReader(c.json), obs.CheckOptions{}); err == nil {
			t.Errorf("%s: checker accepted invalid trace", c.name)
		}
	}
	// RequireCoarsen demands level/map/build coverage.
	flat := `{"traceEvents":[{"name":"run","ph":"X","ts":0,"dur":10,"pid":1,"tid":1}]}`
	if err := obs.CheckTrace(strings.NewReader(flat), obs.CheckOptions{RequireCoarsen: true}); err == nil {
		t.Error("RequireCoarsen accepted a trace with no level spans")
	}
	// It also demands a dedup kernel span under every build: a build whose
	// only children are the policy marker or construction steps is dark.
	// The same trace with a dedup kernel beside the marker passes.
	level := func(buildChildren string) string {
		return `{"traceEvents":[
			{"name":"run","ph":"X","ts":0,"dur":100,"pid":1,"tid":1},
			{"name":"level 0","ph":"X","ts":1,"dur":90,"pid":1,"tid":1},
			{"name":"map:hec","ph":"X","ts":2,"dur":20,"pid":1,"tid":1},
			{"name":"build:auto","ph":"X","ts":30,"dur":50,"pid":1,"tid":1}` + buildChildren + `]}`
	}
	marker := `,{"name":"policy:globalsort:serial-default","ph":"X","ts":79,"dur":0.001,"pid":1,"tid":1}`
	early := `,{"name":"policy:sort:parallel-default","ph":"X","ts":30,"dur":0.001,"pid":1,"tid":1}`
	kernel := `,{"name":"dedup:globalsort","ph":"X","ts":31,"dur":40,"pid":1,"tid":1}`
	cons := `,{"name":"cons:count","ph":"X","ts":31,"dur":10,"pid":1,"tid":1}` +
		`,{"name":"cons:scatter","ph":"X","ts":42,"dur":10,"pid":1,"tid":1}`
	for _, c := range []struct {
		name, children string
		ok             bool
	}{
		{"no children", "", false},
		{"policy marker only", marker, false},
		{"kernel and marker", kernel + marker, true},
		{"two markers", early + marker, false},
		{"marker before kernel", early + kernel, true},
		{"construction steps only", cons, false},
	} {
		err := obs.CheckTrace(strings.NewReader(level(c.children)), obs.CheckOptions{RequireCoarsen: true})
		if c.ok && err != nil {
			t.Errorf("%s: checker rejected the trace: %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: checker accepted a build with no dedup kernel span", c.name)
		}
	}
}
