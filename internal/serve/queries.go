package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"mlcg/internal/cluster"
	"mlcg/internal/obs"
	"mlcg/internal/partition"
)

// Query endpoints operate on finished hierarchies without mutating them:
// they solve on the (small) coarsest graph and project the answer back to
// the fine graph through the mapping arrays — the paper's "coarsen once,
// solve many" split. Any number run concurrently against one hierarchy;
// the shared state is read-only CSR plus mapping slices, and each request
// hands its own obs trace to the solver, so span trees never interleave.

// queryObs follows one query from entry to response: it runs the solve
// under a per-request trace and, at finish, records the kind's latency
// histogram, the flight record, and the structured log line.
type queryObs struct {
	s        *Server
	kind     int
	target   string
	reqID    string
	t0       time.Time
	counters map[string]int64
}

func (s *Server) startQuery(r *http.Request, kind int) *queryObs {
	return &queryObs{
		s:     s,
		kind:  kind,
		reqID: obs.RequestIDFromContext(r.Context()),
		t0:    time.Now(),
	}
}

// traced runs fn with the root span of a per-request trace, which fn
// passes to the solver; the counters ride the flight record and are folded
// into the /metrics aggregate.
func (q *queryObs) traced(fn func(span *obs.Span)) {
	tr := obs.NewTrace(queryKindNames[q.kind] + " " + q.target)
	fn(tr.Root)
	tr.Stop()
	q.counters = tr.Root.Counters()
	q.s.foldCounters(q.counters)
}

// finish closes out the query's telemetry. Deferred by every handler, so
// early error exits (bad body, unknown hierarchy) are recorded too.
func (q *queryObs) finish(ctx context.Context, status int, err error) {
	elapsed := time.Since(q.t0)
	q.s.hists.query[q.kind].Observe(elapsed)
	rec := FlightRecord{
		ID:         q.reqID,
		Kind:       queryKindNames[q.kind],
		Target:     q.target,
		Start:      q.t0,
		DurationMS: float64(elapsed) / float64(time.Millisecond),
		Outcome:    outcomeFor(err),
		Status:     status,
		Counters:   q.counters,
	}
	if err != nil {
		rec.Error = err.Error()
	}
	q.s.flight.record(rec)
	q.s.logRecord(ctx, rec)
}

type partitionRequest struct {
	Hierarchy  string `json:"hierarchy"`
	K          int    `json:"k"`
	Seed       uint64 `json:"seed,omitempty"`
	Assignment bool   `json:"assignment,omitempty"` // include the per-vertex part array
}

type partitionResponse struct {
	Hierarchy  string  `json:"hierarchy"`
	K          int     `json:"k"`
	Cut        int64   `json:"cut"`
	Imbalance  float64 `json:"imbalance"`
	ElapsedMS  float64 `json:"elapsed_ms"`
	Assignment []int32 `json:"assignment,omitempty"`
}

// handlePartition k-way partitions the coarsest graph and projects the
// parts to level 0; cut and imbalance are reported on the fine graph.
func (s *Server) handlePartition(w http.ResponseWriter, r *http.Request) {
	s.stats.queriesPartition.Add(1)
	q := s.startQuery(r, qPartition)
	status := http.StatusOK
	var reqErr error
	defer func() { q.finish(r.Context(), status, reqErr) }()

	var req partitionRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		status, reqErr = http.StatusBadRequest, err
		s.httpError(w, status, "bad request body: %v", err)
		return
	}
	q.target = req.Hierarchy
	if req.K < 2 {
		status = http.StatusBadRequest
		reqErr = fmt.Errorf("k must be >= 2 (got %d)", req.K)
		s.httpError(w, status, "%v", reqErr)
		return
	}
	h, _, err := s.getHierarchy(req.Hierarchy)
	if err != nil {
		status, reqErr = http.StatusNotFound, err
		s.httpError(w, status, "%v", err)
		return
	}
	if n := h.Graphs[0].N(); req.K > n {
		// KWayFM's time and memory grow with k, and parts beyond the
		// vertex count are empty.
		status = http.StatusBadRequest
		reqErr = fmt.Errorf("k must be at most the graph's %d vertices (got %d)", n, req.K)
		s.httpError(w, status, "%v", reqErr)
		return
	}
	var resp partitionResponse
	var solveErr error
	q.traced(func(span *obs.Span) {
		t0 := time.Now()
		res, err := partition.KWayFM(h.Coarsest(), req.K, partition.KWayOptions{
			Seed: req.Seed, Workers: s.cfg.Workers, Span: span,
		})
		if err != nil {
			solveErr = err
			return
		}
		fine := h.ProjectToFine(res.Part)
		g0 := h.Graphs[0]
		resp = partitionResponse{
			Hierarchy: req.Hierarchy,
			K:         req.K,
			Cut:       partition.KWayEdgeCut(g0, fine),
			Imbalance: partition.KWayImbalance(g0, fine, req.K),
			ElapsedMS: float64(time.Since(t0)) / float64(time.Millisecond),
		}
		if req.Assignment {
			resp.Assignment = fine
		}
	})
	if solveErr != nil {
		status, reqErr = http.StatusUnprocessableEntity, solveErr
		s.httpError(w, status, "partition: %v", solveErr)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

type clusterRequest struct {
	Hierarchy  string `json:"hierarchy"`
	Seed       uint64 `json:"seed,omitempty"`
	Assignment bool   `json:"assignment,omitempty"`
}

type clusterResponse struct {
	Hierarchy  string  `json:"hierarchy"`
	K          int32   `json:"k"`
	Modularity float64 `json:"modularity"`
	ElapsedMS  float64 `json:"elapsed_ms"`
	Assignment []int32 `json:"assignment,omitempty"`
}

// handleCluster runs Louvain on the coarsest graph, projects labels to the
// fine graph, and reports fine-graph modularity.
func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	s.stats.queriesCluster.Add(1)
	q := s.startQuery(r, qCluster)
	status := http.StatusOK
	var reqErr error
	defer func() { q.finish(r.Context(), status, reqErr) }()

	var req clusterRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		status, reqErr = http.StatusBadRequest, err
		s.httpError(w, status, "bad request body: %v", err)
		return
	}
	q.target = req.Hierarchy
	h, _, err := s.getHierarchy(req.Hierarchy)
	if err != nil {
		status, reqErr = http.StatusNotFound, err
		s.httpError(w, status, "%v", err)
		return
	}
	var resp clusterResponse
	var solveErr error
	q.traced(func(span *obs.Span) {
		t0 := time.Now()
		res, err := cluster.Louvain(h.Coarsest(), cluster.Options{
			Seed: req.Seed, Workers: s.cfg.Workers, Span: span,
		})
		if err != nil {
			solveErr = err
			return
		}
		fine := h.ProjectToFine(res.Labels)
		resp = clusterResponse{
			Hierarchy:  req.Hierarchy,
			K:          res.K,
			Modularity: cluster.Modularity(h.Graphs[0], fine),
			ElapsedMS:  float64(time.Since(t0)) / float64(time.Millisecond),
		}
		if req.Assignment {
			resp.Assignment = fine
		}
	})
	if solveErr != nil {
		status, reqErr = http.StatusUnprocessableEntity, solveErr
		s.httpError(w, status, "cluster: %v", solveErr)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

type projectRequest struct {
	Hierarchy string  `json:"hierarchy"`
	Labels    []int32 `json:"labels"`
}

type projectResponse struct {
	Hierarchy  string  `json:"hierarchy"`
	Assignment []int32 `json:"assignment"`
}

// handleProject carries a caller-supplied per-vertex assignment on the
// coarsest graph back to level 0 — the building block for custom solvers
// that only need the hierarchy's mappings.
func (s *Server) handleProject(w http.ResponseWriter, r *http.Request) {
	s.stats.queriesProject.Add(1)
	q := s.startQuery(r, qProject)
	status := http.StatusOK
	var reqErr error
	defer func() { q.finish(r.Context(), status, reqErr) }()

	var req projectRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20)).Decode(&req); err != nil {
		status, reqErr = http.StatusBadRequest, err
		s.httpError(w, status, "bad request body: %v", err)
		return
	}
	q.target = req.Hierarchy
	h, _, err := s.getHierarchy(req.Hierarchy)
	if err != nil {
		status, reqErr = http.StatusNotFound, err
		s.httpError(w, status, "%v", err)
		return
	}
	if len(req.Labels) != int(h.Coarsest().NumV) {
		status = http.StatusBadRequest
		reqErr = fmt.Errorf("labels cover %d vertices, coarsest graph has %d",
			len(req.Labels), h.Coarsest().NumV)
		s.httpError(w, status, "%v", reqErr)
		return
	}
	var fine []int32
	q.traced(func(*obs.Span) {
		fine = h.ProjectToFine(req.Labels)
	})
	writeJSON(w, http.StatusOK, projectResponse{Hierarchy: req.Hierarchy, Assignment: fine})
}
