package par

// Hooks into the internal/obs tracing layer. A traced loop is one whose
// Exec carries a span: each worker's busy wall time is charged to that
// span and the worker goroutine carries a pprof label naming it. A nil
// span routes straight to the uninstrumented body, so the untraced cost is
// one nil check per loop, not per iteration. Workers never look anything
// up: the span they report to is the one their caller handed down.

import (
	"context"
	"runtime/pprof"
	"time"

	"mlcg/internal/obs"
)

// obsWorker runs one worker body under a pprof label naming span s and
// charges its wall time to s's busy slot for worker w.
func obsWorker(s *obs.Span, w int, body func()) {
	pprof.Do(context.Background(), pprof.Labels("obs_kernel", s.Name()), func(context.Context) {
		t0 := time.Now()
		body()
		s.BusyAdd(w, time.Since(t0))
	})
}
