// Package serve implements mlcg-serve: an HTTP daemon that ingests graphs,
// builds coarsening hierarchies once, and answers many concurrent
// partition/cluster/projection queries against the shared read-only
// hierarchies. It is the concurrent deployment shape of the paper's
// "coarsen once, solve many" economics — the hierarchy is the expensive
// artifact, the downstream solves are cheap — and it is the component that
// forced the module-wide sweep of process-global state: goroutine-scoped
// obs traces (internal/obs), single-owner workspaces with a pool
// (coarsen.WorkspacePool), and chunked untrusted-input decoding
// (graph.ReadBinary).
//
// Concurrency model:
//
//   - Graphs and hierarchies are immutable once published into the caches;
//     queries take only a read lock to fetch the pointer and then operate
//     lock-free on shared read-only CSR data.
//   - Builds run on a fixed worker pool fed by a bounded queue. A full
//     queue load-sheds with 429 rather than accepting unbounded work; each
//     build runs under a deadline and the server's lifetime context, so
//     shutdown and per-request cancellation both stop a build at the next
//     level boundary (Coarsener.RunCtx).
//   - Every build and query carries its own obs trace, so concurrent
//     requests produce laminar, self-contained span trees; counter totals
//     are folded into the server-wide /metrics aggregate when the request
//     finishes.
//
// Caching is content-addressed: a graph's id is the hash of its canonical
// CSR serialization (so the same graph uploaded in METIS text and binary
// form dedupes), and a hierarchy's id hashes the graph id plus the
// coarsening parameters that affect the output. Worker count is
// deliberately excluded — the coarsening pipeline guarantees hierarchies
// are byte-identical across worker counts (see ROADMAP: determinism), so
// a hierarchy built at any parallelism serves queries for all.
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"mlcg/internal/coarsen"
	"mlcg/internal/graph"
	"mlcg/internal/obs"
)

// Config tunes the server's resource envelope. The zero value is usable:
// every field has a production-shaped default applied by New.
type Config struct {
	// BuildWorkers is the number of hierarchy builds run concurrently
	// (default 2). Each build additionally parallelizes internally with
	// Workers coarsening workers.
	BuildWorkers int
	// Workers is the parallelism degree inside one build/query
	// (0 = GOMAXPROCS). Hierarchy ids do not include it: results are
	// worker-count-invariant.
	Workers int
	// QueueDepth bounds the pending-build queue (default 16). A full
	// queue rejects new builds with 429 instead of queueing unboundedly.
	QueueDepth int
	// BuildTimeout caps one hierarchy build (default 5m). RunCtx stops at
	// the next level boundary when it expires.
	BuildTimeout time.Duration
	// MaxBodyBytes caps an ingest request body (default 1 GiB). It also
	// caps the vertex count an edge-list header may claim: an edge list
	// may leave vertices isolated, so its header alone sizes the graph,
	// while the other formats store every vertex in the body.
	MaxBodyBytes int64
	// MaxGraphs and MaxHierarchies cap the caches (default 256 each); at
	// the cap, new inserts are refused with 507 Insufficient Storage so
	// memory stays bounded. Content addressing means re-uploads of cached
	// objects still succeed.
	MaxGraphs      int
	MaxHierarchies int
	// Logger receives one structured line per completed ingest/build/query
	// (nil = discard). Failed builds log at Error level with their flight
	// record attached.
	Logger *slog.Logger
	// FlightRecorderSize bounds the /debug/requests ring (default 256).
	// A quarter of the capacity is reserved for the slowest requests seen,
	// which survive regardless of subsequent traffic.
	FlightRecorderSize int
	// CacheDir, when non-empty, persists every successfully built hierarchy
	// to <CacheDir>/<id>.mlcg (hierfmt container, atomic rename) and probes
	// that directory on cache misses, so a restarted server serves warm
	// hierarchies from disk instead of recoarsening. Empty disables
	// persistence (the default: a purely in-memory server).
	CacheDir string
}

func (c Config) withDefaults() Config {
	if c.BuildWorkers <= 0 {
		c.BuildWorkers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.BuildTimeout <= 0 {
		c.BuildTimeout = 5 * time.Minute
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 30
	}
	if c.MaxGraphs <= 0 {
		c.MaxGraphs = 256
	}
	if c.MaxHierarchies <= 0 {
		c.MaxHierarchies = 256
	}
	if c.Logger == nil {
		c.Logger = slog.New(discardHandler{})
	}
	if c.FlightRecorderSize <= 0 {
		c.FlightRecorderSize = 256
	}
	return c
}

// Server is the mlcg-serve state: content-addressed caches, the build
// queue, and the metrics aggregate. Create with New, expose via Handler,
// stop with Close.
type Server struct {
	cfg Config
	mux *http.ServeMux

	mu     sync.RWMutex
	graphs map[string]*graphEntry
	builds map[string]*build

	queue     chan *build
	closing   chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
	wsPool    coarsen.WorkspacePool

	stats   serverStats
	hists   *serverHists
	flight  *flightRecorder
	log     *slog.Logger
	started time.Time
	idBase  string
	reqSeq  atomic.Uint64

	// obsMu guards the server-wide obs counter aggregate folded in from
	// finished per-request traces.
	obsMu       sync.Mutex
	obsCounters map[string]int64
}

// serverStats are the monotonic /metrics counters. All atomics: bumped
// from request goroutines without locks.
type serverStats struct {
	graphsIngested   atomic.Int64
	ingestBytes      atomic.Int64
	graphCacheHits   atomic.Int64
	buildsRequested  atomic.Int64
	buildCacheHits   atomic.Int64
	buildsCompleted  atomic.Int64
	buildsFailed     atomic.Int64
	buildsShed       atomic.Int64 // 429s from a full queue
	queriesPartition atomic.Int64
	queriesCluster   atomic.Int64
	queriesProject   atomic.Int64
	requestErrors    atomic.Int64

	// Hierarchy persistence (Config.CacheDir).
	hierSpills      atomic.Int64 // hierarchies written to the cache dir
	hierSpillErrors atomic.Int64 // failed spill attempts
	hierDiskHits    atomic.Int64 // cache misses resolved from disk
	hierDiskMisses  atomic.Int64 // disk probes that found nothing usable
	hierLoadErrors  atomic.Int64 // present-but-unreadable cache files
}

type graphEntry struct {
	id    string
	g     *graph.Graph
	added time.Time
}

// New constructs a Server and starts its build workers. A configured
// CacheDir is created eagerly so spills can't race the first build; a dir
// that cannot be created disables persistence with a logged error rather
// than failing startup (the server is fully functional without it).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	if cfg.CacheDir != "" {
		if err := os.MkdirAll(cfg.CacheDir, 0o755); err != nil {
			cfg.Logger.Error("cache dir unusable, persistence disabled",
				"dir", cfg.CacheDir, "error", err)
			cfg.CacheDir = ""
		}
	}
	s := &Server{
		cfg:         cfg,
		mux:         http.NewServeMux(),
		graphs:      map[string]*graphEntry{},
		builds:      map[string]*build{},
		queue:       make(chan *build, cfg.QueueDepth),
		closing:     make(chan struct{}),
		obsCounters: map[string]int64{},
		hists:       newServerHists(),
		flight:      newFlightRecorder(cfg.FlightRecorderSize),
		log:         cfg.Logger,
		started:     time.Now(),
		idBase:      newIDBase(),
	}
	s.routes()
	for i := 0; i < cfg.BuildWorkers; i++ {
		s.wg.Add(1)
		go s.buildWorker()
	}
	return s
}

func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/graphs", s.handleIngest)
	s.mux.HandleFunc("GET /v1/graphs/{id}", s.handleGraphInfo)
	s.mux.HandleFunc("POST /v1/hierarchies", s.handleBuild)
	s.mux.HandleFunc("GET /v1/hierarchies/{id}", s.handleBuildStatus)
	s.mux.HandleFunc("POST /v1/partition", s.handlePartition)
	s.mux.HandleFunc("POST /v1/cluster", s.handleCluster)
	s.mux.HandleFunc("POST /v1/project", s.handleProject)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("GET /debug/requests", s.handleDebugRequests)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// Handler returns the server's HTTP handler. Every request gets a request
// id — the inbound X-Request-Id header if the caller sent one, a minted id
// otherwise — echoed in the response header and carried on the context so
// the structured log line, the flight record, and the obs trace for one
// request all share it.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-Id")
		if id == "" {
			id = s.nextRequestID()
		}
		w.Header().Set("X-Request-Id", id)
		s.mux.ServeHTTP(w, r.WithContext(obs.ContextWithRequestID(r.Context(), id)))
	})
}

// Close drains the build pipeline: no new builds are admitted, queued
// builds are failed as canceled, and in-flight builds stop at their next
// level boundary. Idempotent — extra calls are no-ops. Call from the
// shutdown path (normally after http.Server.Shutdown has stopped new
// requests; a racing enqueue is still safe — the queue channel is never
// closed, and stragglers are failed by the final drain).
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		close(s.closing)
		s.wg.Wait()
		for {
			select {
			case b := <-s.queue:
				b.finish(nil, errShuttingDown, 0, nil)
				s.stats.buildsFailed.Add(1)
			default:
				return
			}
		}
	})
}

// contentID hashes a graph's canonical CSR serialization; equal graphs get
// equal ids regardless of upload format. The first 16 hex characters are
// plenty at cache scale.
func contentID(g *graph.Graph) (string, error) {
	h := sha256.New()
	if err := g.WriteBinary(h); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// apiError is the uniform error body.
type apiError struct {
	Error string `json:"error"`
}

func (s *Server) httpError(w http.ResponseWriter, code int, format string, args ...any) {
	s.stats.requestErrors.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(apiError{Error: fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

// getGraph fetches a cached graph by id.
func (s *Server) getGraph(id string) (*graphEntry, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.graphs[id]
	return e, ok
}

// foldCounters merges one finished request's obs counter totals into the
// server-wide aggregate exported by /metrics.
func (s *Server) foldCounters(c map[string]int64) {
	if len(c) == 0 {
		return
	}
	s.obsMu.Lock()
	for k, v := range c {
		s.obsCounters[k] += v
	}
	s.obsMu.Unlock()
}
