package serve

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"mlcg/internal/graph"
	"mlcg/internal/hierfmt"
	"mlcg/internal/obs"
)

// graphInfo is the ingest/info response body.
type graphInfo struct {
	ID     string `json:"id"`
	N      int32  `json:"n"`
	M      int64  `json:"m"`
	Cached bool   `json:"cached,omitempty"`
}

// handleIngest parses an uploaded graph (format=metis|binary|edgelist,
// default metis) and publishes it under its content hash. The body is
// capped by MaxBodyBytes, and the binary decoder grows buffers in bounded
// chunks, so a hostile upload costs at most its own wire size — a lying
// length prefix fails fast instead of reserving GiBs. The wrapper records
// the ingest latency histogram and the one structured log line every
// request gets, on success and error paths alike.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	info, status, err := s.ingest(w, r)
	elapsed := time.Since(t0)
	s.hists.ingest.Observe(elapsed)

	rec := FlightRecord{
		ID:         obs.RequestIDFromContext(r.Context()),
		Kind:       "ingest",
		Start:      t0,
		DurationMS: float64(elapsed) / float64(time.Millisecond),
		Outcome:    outcomeFor(err),
		Status:     status,
	}
	if info != nil {
		rec.Target = info.ID
	}
	if err != nil {
		rec.Error = err.Error()
	}
	s.logRecord(r.Context(), rec)
}

// ingest does the parse/hash/publish work and writes the response; the
// returned status and error feed the telemetry wrapper.
func (s *Server) ingest(w http.ResponseWriter, r *http.Request) (*graphInfo, int, error) {
	limited := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	defer limited.Close()
	// Count what the decoder reads: a chunked upload has no ContentLength.
	body := &countingReader{r: limited}

	var (
		g   *graph.Graph
		err error
	)
	switch format := r.URL.Query().Get("format"); format {
	case "", "metis":
		g, err = graph.ReadMetis(body)
	case "binary":
		g, err = graph.ReadBinary(body)
	case "edgelist":
		// Text ingest is CPU-bound on field parsing; shard it across the
		// same worker budget a build gets.
		g, err = graph.StreamEdgesMax(body, s.cfg.Workers, int(min(s.cfg.MaxBodyBytes, graph.MaxParseVertices)))
	case "mlcg":
		var data []byte
		// Uploads get the symmetry and duplicate check that ReadBinary
		// runs on every body.
		if data, err = io.ReadAll(body); err == nil {
			g, _, err = hierfmt.LoadGraph(data, hierfmt.LoadOptions{FullValidate: true})
		}
	default:
		err = fmt.Errorf("unknown format %q (want metis, binary, edgelist, or mlcg)", format)
		s.httpError(w, http.StatusBadRequest, "%v", err)
		return nil, http.StatusBadRequest, err
	}
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.httpError(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", tooBig.Limit)
			return nil, http.StatusRequestEntityTooLarge, err
		}
		s.httpError(w, http.StatusBadRequest, "parse: %v", err)
		return nil, http.StatusBadRequest, err
	}
	id, err := contentID(g)
	if err != nil {
		s.httpError(w, http.StatusInternalServerError, "hash: %v", err)
		return nil, http.StatusInternalServerError, err
	}

	s.mu.Lock()
	if _, ok := s.graphs[id]; ok {
		s.mu.Unlock()
		s.stats.graphCacheHits.Add(1)
		info := &graphInfo{ID: id, N: g.NumV, M: g.M(), Cached: true}
		writeJSON(w, http.StatusOK, info)
		return info, http.StatusOK, nil
	}
	if len(s.graphs) >= s.cfg.MaxGraphs {
		s.mu.Unlock()
		err := fmt.Errorf("graph cache full (%d entries)", s.cfg.MaxGraphs)
		s.httpError(w, http.StatusInsufficientStorage, "%v", err)
		return nil, http.StatusInsufficientStorage, err
	}
	s.graphs[id] = &graphEntry{id: id, g: g, added: time.Now()}
	s.mu.Unlock()

	s.stats.graphsIngested.Add(1)
	s.stats.ingestBytes.Add(body.n)
	info := &graphInfo{ID: id, N: g.NumV, M: g.M()}
	writeJSON(w, http.StatusCreated, info)
	return info, http.StatusCreated, nil
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	k, err := c.r.Read(p)
	c.n += int64(k)
	return k, err
}

func (s *Server) handleGraphInfo(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	e, ok := s.getGraph(id)
	if !ok {
		s.httpError(w, http.StatusNotFound, "no graph %q", id)
		return
	}
	writeJSON(w, http.StatusOK, graphInfo{ID: e.id, N: e.g.NumV, M: e.g.M(), Cached: true})
}
