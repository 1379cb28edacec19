package cli

import (
	"fmt"
	"io"

	"mlcg/internal/obs"
)

// StartObs starts the tool trace (obs.StartTrace) when the shared
// -trace/-metrics flags request it. tracePath may be empty (no trace file)
// and metrics false (no text dump); when both are off the returned stop is
// a no-op and tracing stays disabled, so the instrumented code paths keep
// their nil-check-only cost. The returned stop function must be called
// exactly once, after the work being traced: it closes every open span,
// writes the Chrome trace_event file, and prints the metrics dump to
// metricsOut.
func StartObs(tracePath string, metrics bool, metricsOut io.Writer) (stop func() error, err error) {
	if tracePath == "" && !metrics {
		return func() error { return nil }, nil
	}
	tr := obs.StartTrace("run")
	if tr == nil {
		return nil, fmt.Errorf("a tool trace is already running in this process")
	}
	return func() error {
		tr.Stop()
		if tracePath != "" {
			if err := tr.WriteTraceFile(tracePath); err != nil {
				return err
			}
		}
		if metrics {
			return tr.WriteMetrics(metricsOut)
		}
		return nil
	}, nil
}
