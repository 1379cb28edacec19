package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"mlcg/internal/cluster"
	"mlcg/internal/coarsen"
	"mlcg/internal/graph"
	"mlcg/internal/obs"
)

// buildParams selects the hierarchy a client wants. The JSON zero values
// mean "the default": HEC mapping, sort construction, cutoff 50, the
// paper's level cap. Workers is deliberately not a parameter — hierarchies
// are byte-identical across worker counts, so parallelism is a server
// setting, not part of the result's identity.
type buildParams struct {
	Graph     string `json:"graph"`
	Mapper    string `json:"mapper,omitempty"`
	Builder   string `json:"builder,omitempty"`
	Seed      uint64 `json:"seed,omitempty"`
	Cutoff    int    `json:"cutoff,omitempty"`
	MaxLevels int    `json:"max_levels,omitempty"`
}

// normalize resolves defaults so equivalent requests share one cache slot
// (cutoff 0 and cutoff 50 are the same hierarchy).
func (p buildParams) normalize() buildParams {
	if p.Mapper == "" {
		p.Mapper = "hec"
	}
	if p.Builder == "" {
		p.Builder = "sort"
	}
	if p.Cutoff <= 0 {
		p.Cutoff = 50
	}
	if p.MaxLevels <= 0 {
		p.MaxLevels = 201
	}
	return p
}

// id hashes the normalized parameters into the hierarchy's cache key.
func (p buildParams) id() string {
	h := sha256.New()
	fmt.Fprintf(h, "%s|%s|%s|%d|%d|%d", p.Graph, p.Mapper, p.Builder, p.Seed, p.Cutoff, p.MaxLevels)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// build is one hierarchy build's lifecycle. Fields under mu are written by
// the build worker and read by status/query handlers; done is closed
// exactly once when the build reaches a terminal state.
type build struct {
	id     string
	params buildParams
	g      *graph.Graph

	// Telemetry identity: the admitting request's id and enqueue time.
	// enqueuedAt is written before the channel send and read by the worker
	// after the receive; queueWait is worker-local after dequeue.
	reqID      string
	enqueuedAt time.Time
	queueWait  time.Duration

	done chan struct{}

	// stateMu guards everything below: the transient status string while
	// queued/running, and the terminal fields once finish has run.
	stateMu  sync.Mutex
	status   string // "queued" | "running" | "done" | "failed"
	h        *coarsen.Hierarchy
	err      error
	elapsed  time.Duration
	counters map[string]int64

	// selfW is the coarsest level's carried self-weights
	// (cluster.SelfWeights), computed once, at the hierarchy's first
	// cluster query.
	selfOnce sync.Once
	selfW    []int64
}

func newBuild(p buildParams, g *graph.Graph) *build {
	return &build{id: p.id(), params: p, g: g, done: make(chan struct{}), status: "queued"}
}

func (b *build) setStatus(st string) {
	b.stateMu.Lock()
	b.status = st
	b.stateMu.Unlock()
}

// finish publishes the terminal state and releases waiters.
func (b *build) finish(h *coarsen.Hierarchy, err error, elapsed time.Duration, counters map[string]int64) {
	b.stateMu.Lock()
	b.h, b.err, b.elapsed, b.counters = h, err, elapsed, counters
	if err != nil {
		b.status = "failed"
	} else {
		b.status = "done"
	}
	b.stateMu.Unlock()
	close(b.done)
}

// snapshot returns a consistent view for status reporting.
func (b *build) snapshot() (status string, h *coarsen.Hierarchy, err error, elapsed time.Duration, counters map[string]int64) {
	b.stateMu.Lock()
	defer b.stateMu.Unlock()
	return b.status, b.h, b.err, b.elapsed, b.counters
}

// coarsestSelfWeights returns the self-weights of the coarsest level of h,
// b's finished hierarchy, computing them at the first call.
func (b *build) coarsestSelfWeights(h *coarsen.Hierarchy) []int64 {
	b.selfOnce.Do(func() {
		b.selfW = cluster.SelfWeights(h, h.Levels())[h.Levels()]
	})
	return b.selfW
}

// errShuttingDown is the terminal error builds receive when the server
// drains before they run.
var errShuttingDown = fmt.Errorf("serve: server shutting down")

// buildWorker drains the queue until Close. Builds admitted before Close
// but not yet started are failed as canceled rather than silently dropped
// (here or by Close's final drain), so their waiters unblock with a
// definite answer.
func (s *Server) buildWorker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.closing:
			return
		case b := <-s.queue:
			select {
			case <-s.closing:
				b.finish(nil, errShuttingDown, 0, nil)
				s.stats.buildsFailed.Add(1)
				continue
			default:
			}
			b.queueWait = time.Since(b.enqueuedAt)
			s.hists.queueWait.Observe(b.queueWait)
			s.runBuild(b)
		}
	}
}

// runBuild executes one hierarchy build: fresh mapper/builder instances
// (the adaptive builder is stateful per hierarchy), a pooled workspace, a
// per-build obs trace carried by context, and a deadline. The build also
// aborts at the next level boundary if the server starts draining.
func (s *Server) runBuild(b *build) {
	b.setStatus("running")
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.BuildTimeout)
	defer cancel()
	// Tie the build to server shutdown: watch closing only while running,
	// so draining stops an in-flight build at its next level boundary.
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-s.closing:
			cancel()
		case <-watchDone:
		}
	}()

	mapper, err := coarsen.MapperByName(b.params.Mapper)
	if err == nil {
		var builder coarsen.Builder
		builder, err = coarsen.BuilderByName(b.params.Builder)
		if err == nil {
			tr := obs.NewTrace("build " + b.id)
			runCtx := obs.NewContext(ctx, tr)
			ws := s.wsPool.Get()
			c := coarsen.Coarsener{
				Mapper: mapper, Builder: builder,
				Cutoff: b.params.Cutoff, MaxLevels: b.params.MaxLevels,
				Seed: b.params.Seed, Workers: s.cfg.Workers,
				Workspace: ws,
			}
			t0 := time.Now()
			h, runErr := c.RunCtx(runCtx, b.g)
			elapsed := time.Since(t0)
			tr.Stop()
			s.wsPool.Put(ws)
			counters := tr.Root.Counters()
			s.foldCounters(counters)
			if runErr != nil {
				s.stats.buildsFailed.Add(1)
			} else {
				s.stats.buildsCompleted.Add(1)
			}
			// Record the telemetry before releasing the waiters, so a
			// client that has its response also finds the build's log
			// line, flight record and histogram observations.
			s.observeBuild(b, h, runErr, elapsed, counters)
			b.finish(h, runErr, elapsed, counters)
			if runErr == nil && s.cfg.CacheDir != "" {
				// Waiters are already released; the spill only costs the
				// build worker, never a request.
				s.spillHierarchy(b, h)
			}
			return
		}
	}
	// Unreachable in practice: names are validated at admission.
	s.stats.buildsFailed.Add(1)
	s.observeBuild(b, nil, err, 0, nil)
	b.finish(nil, err, 0, nil)
}

// observeBuild records a finished build's telemetry: the run and per-level
// phase histograms, the flight record, and the structured log line. Failed
// and deadline-canceled builds log at Error level with their full counter
// set attached — the automatic flight-record dump.
func (s *Server) observeBuild(b *build, h *coarsen.Hierarchy, runErr error, elapsed time.Duration, counters map[string]int64) {
	s.hists.buildRun.Observe(elapsed)
	rec := FlightRecord{
		ID:         b.reqID,
		Kind:       "build",
		Target:     b.id,
		Start:      time.Now().Add(-elapsed - b.queueWait),
		QueueMS:    float64(b.queueWait) / float64(time.Millisecond),
		DurationMS: float64(elapsed) / float64(time.Millisecond),
		Outcome:    outcomeFor(runErr),
		Counters:   counters,
	}
	if runErr != nil {
		rec.Error = runErr.Error()
	}
	if h != nil {
		rec.Levels = h.Levels()
		phases := make([]levelPhase, 0, len(h.Stats))
		for i, ls := range h.Stats {
			phases = append(phases, levelPhase{level: i, mapTime: ls.MapTime, buildTime: ls.BuildTime})
		}
		s.observeLevels(phases)
	}
	s.flight.record(rec)
	s.logRecord(obs.ContextWithRequestID(context.Background(), b.reqID), rec)
}

// levelInfo is one hierarchy level's stats in the status response.
type levelInfo struct {
	N       int32   `json:"n"`
	NC      int32   `json:"nc"`
	M       int64   `json:"m"`
	MapMS   float64 `json:"map_ms"`
	BuildMS float64 `json:"build_ms"`
	Builder string  `json:"builder"`
	Reason  string  `json:"reason,omitempty"`
}

// buildStatus is the /v1/hierarchies response body.
type buildStatus struct {
	ID       string           `json:"id"`
	Status   string           `json:"status"`
	Cached   bool             `json:"cached,omitempty"`
	Error    string           `json:"error,omitempty"`
	Params   buildParams      `json:"params"`
	Levels   int              `json:"levels,omitempty"`
	CoarseN  int32            `json:"coarsest_n,omitempty"`
	Ratio    float64          `json:"coarsening_ratio,omitempty"`
	Stalled  bool             `json:"stalled,omitempty"`
	TotalMS  float64          `json:"total_ms,omitempty"`
	Detail   []levelInfo      `json:"level_detail,omitempty"`
	Counters map[string]int64 `json:"counters,omitempty"`
}

func (b *build) statusBody(detail bool) buildStatus {
	st, h, err, elapsed, counters := b.snapshot()
	out := buildStatus{ID: b.id, Status: st, Params: b.params}
	if err != nil {
		out.Error = err.Error()
	}
	if h != nil {
		out.Levels = h.Levels()
		out.CoarseN = h.Coarsest().NumV
		out.Ratio = h.CoarseningRatio()
		out.Stalled = h.Stalled
		out.TotalMS = float64(elapsed) / float64(time.Millisecond)
		if detail {
			out.Counters = counters
			for _, ls := range h.Stats {
				out.Detail = append(out.Detail, levelInfo{
					N: ls.N, NC: ls.NC, M: ls.M,
					MapMS:   float64(ls.MapTime) / float64(time.Millisecond),
					BuildMS: float64(ls.BuildTime) / float64(time.Millisecond),
					Builder: ls.Builder, Reason: ls.BuildReason,
				})
			}
		}
	}
	return out
}

// handleBuild admits a hierarchy build. Cached (including in-flight)
// builds are returned immediately; new builds go through the bounded
// queue, and a full queue sheds load with 429 so the server degrades by
// refusing work instead of accumulating it.
func (s *Server) handleBuild(w http.ResponseWriter, r *http.Request) {
	s.stats.buildsRequested.Add(1)
	var p buildParams
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	if err := dec.Decode(&p); err != nil {
		s.httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	p = p.normalize()
	if _, err := coarsen.MapperByName(p.Mapper); err != nil {
		s.httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if _, err := coarsen.BuilderByName(p.Builder); err != nil {
		s.httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	id := p.id()
	s.mu.Lock()
	if b, ok := s.builds[id]; ok {
		s.mu.Unlock()
		s.stats.buildCacheHits.Add(1)
		s.respondBuild(w, r, b, true)
		return
	}
	s.mu.Unlock()

	// In-memory miss: the spill directory may still have this hierarchy
	// from a previous incarnation. A disk hit is complete in itself — the
	// container carries the graphs — so the fine graph need not be
	// re-ingested for a warm restart to answer.
	if b := s.probeDisk(id); b != nil {
		s.stats.buildCacheHits.Add(1)
		s.respondBuild(w, r, b, true)
		return
	}

	// A genuine miss needs the ingested fine graph to coarsen.
	ge, ok := s.getGraph(p.Graph)
	if !ok {
		s.httpError(w, http.StatusNotFound, "no graph %q (ingest it first via POST /v1/graphs)", p.Graph)
		return
	}

	s.mu.Lock()
	if b, ok := s.builds[id]; ok {
		// Raced with a concurrent admit of the same params.
		s.mu.Unlock()
		s.stats.buildCacheHits.Add(1)
		s.respondBuild(w, r, b, true)
		return
	}
	if len(s.builds) >= s.cfg.MaxHierarchies {
		s.mu.Unlock()
		s.httpError(w, http.StatusInsufficientStorage, "hierarchy cache full (%d entries)", s.cfg.MaxHierarchies)
		return
	}
	b := newBuild(p, ge.g)
	b.reqID = obs.RequestIDFromContext(r.Context())
	b.enqueuedAt = time.Now()
	s.builds[id] = b
	s.mu.Unlock()

	select {
	case <-s.closing:
		s.mu.Lock()
		delete(s.builds, id)
		s.mu.Unlock()
		s.httpError(w, http.StatusServiceUnavailable, "server draining")
		return
	case s.queue <- b:
	default:
		// Load shed: drop the entry we just created and refuse.
		s.mu.Lock()
		delete(s.builds, id)
		s.mu.Unlock()
		s.stats.buildsShed.Add(1)
		w.Header().Set("Retry-After", "1")
		s.httpError(w, http.StatusTooManyRequests, "build queue full (%d pending)", s.cfg.QueueDepth)
		return
	}
	s.respondBuild(w, r, b, false)
}

// respondBuild answers a build request, optionally blocking (?wait=1)
// until the build finishes or the client goes away.
func (s *Server) respondBuild(w http.ResponseWriter, r *http.Request, b *build, cached bool) {
	if q := r.URL.Query().Get("wait"); q == "1" || q == "true" {
		select {
		case <-b.done:
		case <-r.Context().Done():
			s.httpError(w, 499, "client canceled while waiting for build %s", b.id)
			return
		}
	}
	body := b.statusBody(false)
	body.Cached = cached
	code := http.StatusAccepted
	if body.Status == "done" || body.Status == "failed" {
		code = http.StatusOK
	}
	writeJSON(w, code, body)
}

func (s *Server) handleBuildStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.RLock()
	b, ok := s.builds[id]
	s.mu.RUnlock()
	if !ok {
		// Same warm-restart path as the query endpoints: a status poll by
		// id is answerable from the spill directory too.
		if b = s.probeDisk(id); b == nil {
			s.httpError(w, http.StatusNotFound, "no hierarchy %q", id)
			return
		}
	}
	writeJSON(w, http.StatusOK, b.statusBody(r.URL.Query().Get("detail") == "1"))
}

// getHierarchy resolves a finished hierarchy for the query endpoints. An
// in-memory miss falls through to the spill directory, so the first query
// after a warm restart loads from disk instead of demanding a rebuild.
func (s *Server) getHierarchy(id string) (*coarsen.Hierarchy, *build, error) {
	s.mu.RLock()
	b, ok := s.builds[id]
	s.mu.RUnlock()
	if !ok {
		if b = s.probeDisk(id); b == nil {
			return nil, nil, fmt.Errorf("no hierarchy %q", id)
		}
	}
	st, h, err, _, _ := b.snapshot()
	switch st {
	case "done":
		return h, b, nil
	case "failed":
		return nil, b, fmt.Errorf("hierarchy %s failed: %v", id, err)
	default:
		return nil, b, fmt.Errorf("hierarchy %s is %s; poll GET /v1/hierarchies/%s", id, st, id)
	}
}
