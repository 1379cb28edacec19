package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"mlcg/internal/gen"
	"mlcg/internal/obs"
)

// scrape fetches /metrics and returns the body and Content-Type.
func scrape(t testing.TB, url string) (string, string) {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d: %s", resp.StatusCode, body)
	}
	return string(body), resp.Header.Get("Content-Type")
}

// smokeLoad pushes one ingest, one finished build, and one query of each
// kind through the server, so every lifecycle histogram has observations.
func smokeLoad(t testing.TB, ts *httptest.Server) (graphInfo, buildStatus) {
	t.Helper()
	g := gen.Grid2D(20, 20)
	gi := ingest(t, ts, metisBytes(t, g), "")
	st := buildWait(t, ts, buildParams{Graph: gi.ID})
	code, raw := doJSON(t, http.DefaultClient, "POST", ts.URL+"/v1/partition",
		partitionRequest{Hierarchy: st.ID, K: 2}, nil)
	if code != http.StatusOK {
		t.Fatalf("partition: %d %s", code, raw)
	}
	code, raw = doJSON(t, http.DefaultClient, "POST", ts.URL+"/v1/cluster",
		clusterRequest{Hierarchy: st.ID}, nil)
	if code != http.StatusOK {
		t.Fatalf("cluster: %d %s", code, raw)
	}
	labels := make([]int32, st.CoarseN)
	code, raw = doJSON(t, http.DefaultClient, "POST", ts.URL+"/v1/project",
		projectRequest{Hierarchy: st.ID, Labels: labels}, nil)
	if code != http.StatusOK {
		t.Fatalf("project: %d %s", code, raw)
	}
	return gi, st
}

// TestMetricsPrometheusExposition is the strict gate on the /metrics
// rewrite: after a smoke load the whole document must pass the pure-Go
// exposition linter (HELP/TYPE pairing, name charset, histogram bucket
// monotonicity, +Inf terminal buckets, no duplicate series), and the
// lifecycle histograms must carry the observations the load generated.
func TestMetricsPrometheusExposition(t *testing.T) {
	_, ts := testServer(t, Config{})
	smokeLoad(t, ts)

	doc, ctype := scrape(t, ts.URL)
	if !strings.Contains(ctype, "version=0.0.4") {
		t.Errorf("Content-Type = %q, want the 0.0.4 exposition version", ctype)
	}
	stats, err := obs.LintMetrics(strings.NewReader(doc))
	if err != nil {
		t.Fatalf("/metrics failed exposition lint: %v\n%s", err, doc)
	}
	for family, typ := range map[string]string{
		"mlcg_builds_completed_total":   "counter",
		"mlcg_build_queue_depth":        "gauge",
		"mlcg_ingest_seconds":           "histogram",
		"mlcg_build_queue_wait_seconds": "histogram",
		"mlcg_build_run_seconds":        "histogram",
		"mlcg_query_seconds":            "histogram",
		"mlcg_build_level_map_seconds":  "histogram",
		"go_goroutines":                 "gauge",
		"go_gc_pause_seconds_total":     "counter",
	} {
		if got := stats.Families[family]; got != typ {
			t.Errorf("family %s: type %q, want %q", family, got, typ)
		}
	}
	// The load produced exactly one of each lifecycle event; the counts
	// must say so (and the per-kind/per-band labels must be present).
	for _, want := range []string{
		"mlcg_ingest_seconds_count 1",
		"mlcg_build_queue_wait_seconds_count 1",
		"mlcg_build_run_seconds_count 1",
		`mlcg_query_seconds_count{kind="partition"} 1`,
		`mlcg_query_seconds_count{kind="cluster"} 1`,
		`mlcg_query_seconds_count{kind="project"} 1`,
		`mlcg_build_level_map_seconds_count{level="0"} 1`,
		`mlcg_build_level_build_seconds_count{level="0"} 1`,
		`mlcg_query_seconds_bucket{kind="partition",le="+Inf"} 1`,
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// Folded kernel counters survive sanitization as counter families.
	if !strings.Contains(doc, "mlcg_ctr_") {
		t.Errorf("/metrics missing sanitized kernel counters\n%s", doc)
	}
	if stats.Samples == 0 {
		t.Fatal("lint saw no samples")
	}
}

// TestIngestBytesChunked uploads a graph with chunked transfer encoding,
// where the request has no ContentLength (the server sees -1): the
// ingest byte counter must still rise by exactly the body length.
func TestIngestBytesChunked(t *testing.T) {
	s, ts := testServer(t, Config{})
	var buf bytes.Buffer
	if err := gen.Grid2D(12, 12).WriteEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	body := buf.Bytes()
	before := s.stats.ingestBytes.Load()
	// A reader of unknown length makes the client send the body chunked.
	req, err := http.NewRequest("POST", ts.URL+"/v1/graphs?format=edgelist", io.MultiReader(bytes.NewReader(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("ingest: status %d body %s", resp.StatusCode, raw)
	}
	if got := s.stats.ingestBytes.Load() - before; got != int64(len(body)) {
		t.Errorf("mlcg_ingest_bytes_total rose by %d, want the body length %d", got, len(body))
	}
	doc, _ := scrape(t, ts.URL)
	if want := fmt.Sprintf("mlcg_ingest_bytes_total %d\n", len(body)); !strings.Contains(doc, want) {
		t.Errorf("/metrics missing %q", want)
	}
}

// TestMetricsConcurrentScrape hammers /metrics while requests run; under
// -race this guards the snapshot-then-write discipline (no server lock may
// be held across ResponseWriter writes).
func TestMetricsConcurrentScrape(t *testing.T) {
	_, ts := testServer(t, Config{})
	g := gen.Grid2D(16, 16)
	gi := ingest(t, ts, metisBytes(t, g), "")
	st := buildWait(t, ts, buildParams{Graph: gi.ID})

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				resp, err := http.Get(ts.URL + "/metrics")
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			labels := make([]int32, st.CoarseN)
			for i := 0; i < 10; i++ {
				if _, _, err := requestJSON(http.DefaultClient, "POST", ts.URL+"/v1/project",
					projectRequest{Hierarchy: st.ID, Labels: labels}, nil); err != nil {
					t.Errorf("project: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	doc, _ := scrape(t, ts.URL)
	if _, err := obs.LintMetrics(strings.NewReader(doc)); err != nil {
		t.Fatalf("post-hammer document invalid: %v", err)
	}
}

func TestRequestIDHeader(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	minted := resp.Header.Get("X-Request-Id")
	if minted == "" {
		t.Fatal("no X-Request-Id minted")
	}

	req, _ := http.NewRequest("GET", ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-Id", "caller-supplied-7")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "caller-supplied-7" {
		t.Fatalf("inbound request id not honored: got %q", got)
	}
}

// lockedBuffer is a goroutine-safe sink for the test logger (build lines
// are emitted from worker goroutines).
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestStructuredRequestLogs asserts the one-line-per-request contract:
// after the smoke load there is exactly one JSON log line per ingest,
// build, and query, each carrying the request id, outcome, and duration.
func TestStructuredRequestLogs(t *testing.T) {
	var sink lockedBuffer
	logger := slog.New(slog.NewJSONHandler(&sink, nil))
	_, ts := testServer(t, Config{Logger: logger})
	smokeLoad(t, ts)

	perKind := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(sink.String()), "\n") {
		var entry struct {
			Msg     string  `json:"msg"`
			Req     string  `json:"req"`
			Outcome string  `json:"outcome"`
			MS      float64 `json:"ms"`
			Levels  int     `json:"levels"`
		}
		if err := json.Unmarshal([]byte(line), &entry); err != nil {
			t.Fatalf("unparseable log line %q: %v", line, err)
		}
		perKind[entry.Msg]++
		if entry.Req == "" {
			t.Errorf("%s line missing request id: %s", entry.Msg, line)
		}
		if entry.Outcome != "ok" {
			t.Errorf("%s line outcome %q, want ok: %s", entry.Msg, entry.Outcome, line)
		}
		if entry.Msg == "build" && entry.Levels < 1 {
			t.Errorf("build line missing levels: %s", line)
		}
	}
	for kind, want := range map[string]int{
		"ingest": 1, "build": 1, "partition": 1, "cluster": 1, "project": 1,
	} {
		if perKind[kind] != want {
			t.Errorf("%d %s log lines, want %d\n%s", perKind[kind], kind, want, sink.String())
		}
	}
}

// TestSanitizedCounterNamesValid double-checks the /metrics export edge:
// every exported family name must be a valid Prometheus name even though
// raw obs counter keys may contain colons (construction policies).
func TestSanitizedCounterNamesValid(t *testing.T) {
	s, ts := testServer(t, Config{})
	// Inject hostile raw keys directly into the fold.
	s.foldCounters(map[string]int64{
		"policy:sort:trivial": 3,
		"policy.sort.trivial": 4,
		"9starts_with_digit":  5,
	})
	doc, _ := scrape(t, ts.URL)
	if _, err := obs.LintMetrics(strings.NewReader(doc)); err != nil {
		t.Fatalf("hostile counter keys broke the exposition: %v\n%s", err, doc)
	}
	// Both colliding keys survive as distinct series.
	if !strings.Contains(doc, "mlcg_ctr_policy_sort_trivial_total 4") ||
		!strings.Contains(doc, "mlcg_ctr_policy_sort_trivial_2_total 3") {
		t.Errorf("sanitization dedup lost a counter:\n%s", doc)
	}
	if !strings.Contains(doc, "mlcg_ctr__9starts_with_digit_total 5") {
		t.Errorf("leading-digit key not sanitized:\n%s", doc)
	}
}
