package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mlcg/internal/gen"
	"mlcg/internal/graph"
	"mlcg/internal/hierfmt"
)

func metisBytes(t testing.TB, g *graph.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := g.WriteMetis(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func binaryBytes(t testing.TB, g *graph.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// testServer wires a Server with test-friendly limits into an httptest
// listener and tears both down with the test.
func testServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func doJSON(t testing.TB, client *http.Client, method, url string, body any, out any) (int, string) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: bad JSON %q: %v", method, url, raw, err)
		}
	}
	return resp.StatusCode, string(raw)
}

func ingest(t testing.TB, ts *httptest.Server, payload []byte, format string) graphInfo {
	t.Helper()
	url := ts.URL + "/v1/graphs"
	if format != "" {
		url += "?format=" + format
	}
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: status %d body %s", resp.StatusCode, raw)
	}
	var info graphInfo
	if err := json.Unmarshal(raw, &info); err != nil {
		t.Fatal(err)
	}
	return info
}

func buildWait(t testing.TB, ts *httptest.Server, p buildParams) buildStatus {
	t.Helper()
	var st buildStatus
	code, raw := doJSON(t, http.DefaultClient, "POST", ts.URL+"/v1/hierarchies?wait=1", p, &st)
	if code != http.StatusOK {
		t.Fatalf("build: status %d body %s", code, raw)
	}
	if st.Status != "done" {
		t.Fatalf("build: terminal status %q (%s)", st.Status, st.Error)
	}
	return st
}

func TestIngestFormatsDedupe(t *testing.T) {
	_, ts := testServer(t, Config{})
	g := gen.Grid2D(24, 24)

	a := ingest(t, ts, metisBytes(t, g), "")
	if a.N != g.NumV || a.M != g.M() {
		t.Fatalf("ingest reported n=%d m=%d, want %d/%d", a.N, a.M, g.NumV, g.M())
	}
	// The same graph in binary form must land on the same content id.
	b := ingest(t, ts, binaryBytes(t, g), "binary")
	if b.ID != a.ID {
		t.Fatalf("binary upload got id %s, metis got %s — content addressing broken", b.ID, a.ID)
	}
	if !b.Cached {
		t.Fatal("re-upload of identical content not reported as cached")
	}

	// Rejections: unknown format, garbage payload, lying binary header.
	for _, tc := range []struct {
		name, format string
		payload      []byte
		wantCode     int
	}{
		{"unknown format", "yaml", metisBytes(t, g), http.StatusBadRequest},
		{"garbage metis", "", []byte("not a graph\n"), http.StatusBadRequest},
		{"truncated binary", "binary", binaryBytes(t, g)[:20], http.StatusBadRequest},
	} {
		url := ts.URL + "/v1/graphs"
		if tc.format != "" {
			url += "?format=" + tc.format
		}
		resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(tc.payload))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.wantCode {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.wantCode)
		}
	}

	// Info endpoint round trip and unknown id.
	var info graphInfo
	code, _ := doJSON(t, http.DefaultClient, "GET", ts.URL+"/v1/graphs/"+a.ID, nil, &info)
	if code != http.StatusOK || info.N != g.NumV {
		t.Fatalf("graph info: code %d info %+v", code, info)
	}
	code, _ = doJSON(t, http.DefaultClient, "GET", ts.URL+"/v1/graphs/deadbeef", nil, nil)
	if code != http.StatusNotFound {
		t.Fatalf("unknown graph id: status %d, want 404", code)
	}
}

func TestIngestBodyLimit(t *testing.T) {
	_, ts := testServer(t, Config{MaxBodyBytes: 128})
	g := gen.Grid2D(32, 32)
	resp, err := http.Post(ts.URL+"/v1/graphs?format=binary", "application/octet-stream",
		bytes.NewReader(binaryBytes(t, g)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", resp.StatusCode)
	}
}

// TestIngestMlcgRejectsAsymmetricGraph: a .mlcg upload passes the same
// symmetry check as a binary one. The body is a 200-vertex path whose
// vertex 5 lists itself in place of vertex 4, which the container's
// structural check alone accepts.
func TestIngestMlcgRejectsAsymmetricGraph(t *testing.T) {
	_, ts := testServer(t, Config{})
	g := gen.Grid2D(1, 200) // a 200-vertex path
	adj, _ := g.Neighbors(5)
	for k, v := range adj {
		if v == 4 {
			adj[k] = 5
		}
	}
	var buf bytes.Buffer
	if err := hierfmt.SaveGraph(&buf, g, hierfmt.SaveOptions{}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/graphs?format=mlcg", "application/octet-stream", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), "edge {4,5} missing reverse") {
		t.Fatalf("status %d body %s, want 400 naming the missing reverse edge", resp.StatusCode, raw)
	}
}

func TestBuildQueryLifecycle(t *testing.T) {
	_, ts := testServer(t, Config{})
	g := gen.RMAT(11, 8, 5)
	gi := ingest(t, ts, binaryBytes(t, g), "binary")

	st := buildWait(t, ts, buildParams{Graph: gi.ID, Builder: "auto", Seed: 7})
	if st.Levels < 1 || st.CoarseN <= 0 {
		t.Fatalf("suspicious hierarchy: %+v", st)
	}

	// Detail view carries per-level stats and kernel counters.
	var det buildStatus
	code, raw := doJSON(t, http.DefaultClient, "GET", ts.URL+"/v1/hierarchies/"+st.ID+"?detail=1", nil, &det)
	if code != http.StatusOK {
		t.Fatalf("status detail: %d %s", code, raw)
	}
	if len(det.Detail) != det.Levels {
		t.Fatalf("detail rows %d != levels %d", len(det.Detail), det.Levels)
	}
	if len(det.Counters) == 0 {
		t.Fatal("detail view missing obs counters")
	}

	// A second identical request is a cache hit and returns immediately.
	var st2 buildStatus
	code, raw = doJSON(t, http.DefaultClient, "POST", ts.URL+"/v1/hierarchies", buildParams{Graph: gi.ID, Builder: "auto", Seed: 7}, &st2)
	if code != http.StatusOK || !st2.Cached || st2.ID != st.ID {
		t.Fatalf("expected cached done build, got code %d %+v (%s)", code, st2, raw)
	}
	// Defaulted and explicit parameters share a cache slot.
	var st3 buildStatus
	code, _ = doJSON(t, http.DefaultClient, "POST", ts.URL+"/v1/hierarchies", buildParams{Graph: gi.ID, Builder: "auto", Seed: 7, Cutoff: 50, MaxLevels: 201, Mapper: "hec"}, &st3)
	if code != http.StatusOK || st3.ID != st.ID {
		t.Fatalf("normalized params missed cache: code %d id %s want %s", code, st3.ID, st.ID)
	}

	// Partition: sane cut and balance, assignment covers the fine graph.
	var pr partitionResponse
	code, raw = doJSON(t, http.DefaultClient, "POST", ts.URL+"/v1/partition",
		partitionRequest{Hierarchy: st.ID, K: 4, Seed: 3, Assignment: true}, &pr)
	if code != http.StatusOK {
		t.Fatalf("partition: %d %s", code, raw)
	}
	if pr.Cut <= 0 || pr.Imbalance < 0 || len(pr.Assignment) != g.N() {
		t.Fatalf("partition result implausible: cut=%d imb=%f len=%d", pr.Cut, pr.Imbalance, len(pr.Assignment))
	}
	seen := map[int32]bool{}
	for _, p := range pr.Assignment {
		if p < 0 || p >= 4 {
			t.Fatalf("part id %d out of range", p)
		}
		seen[p] = true
	}
	if len(seen) != 4 {
		t.Fatalf("only %d of 4 parts used", len(seen))
	}

	// Cluster: valid modularity and labels.
	var cr clusterResponse
	code, raw = doJSON(t, http.DefaultClient, "POST", ts.URL+"/v1/cluster",
		clusterRequest{Hierarchy: st.ID, Assignment: true}, &cr)
	if code != http.StatusOK {
		t.Fatalf("cluster: %d %s", code, raw)
	}
	if cr.K <= 0 || cr.Modularity <= 0 || len(cr.Assignment) != g.N() {
		t.Fatalf("cluster result implausible: k=%d q=%f len=%d", cr.K, cr.Modularity, len(cr.Assignment))
	}

	// Projection of a hand-made coarse labeling.
	labels := make([]int32, st.CoarseN)
	for i := range labels {
		labels[i] = int32(i % 3)
	}
	var prj projectResponse
	code, raw = doJSON(t, http.DefaultClient, "POST", ts.URL+"/v1/project",
		projectRequest{Hierarchy: st.ID, Labels: labels}, &prj)
	if code != http.StatusOK || len(prj.Assignment) != g.N() {
		t.Fatalf("project: %d %s", code, raw)
	}
	// Wrong label count is rejected.
	code, _ = doJSON(t, http.DefaultClient, "POST", ts.URL+"/v1/project",
		projectRequest{Hierarchy: st.ID, Labels: labels[:1]}, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("short labels: status %d, want 400", code)
	}
}

func TestBuildRejections(t *testing.T) {
	_, ts := testServer(t, Config{})
	g := gen.Grid2D(16, 16)
	gi := ingest(t, ts, metisBytes(t, g), "")

	for _, tc := range []struct {
		name string
		p    buildParams
		want int
	}{
		{"unknown graph", buildParams{Graph: "deadbeef"}, http.StatusNotFound},
		{"unknown mapper", buildParams{Graph: gi.ID, Mapper: "bogus"}, http.StatusBadRequest},
		{"unknown builder", buildParams{Graph: gi.ID, Builder: "bogus"}, http.StatusBadRequest},
	} {
		code, raw := doJSON(t, http.DefaultClient, "POST", ts.URL+"/v1/hierarchies", tc.p, nil)
		if code != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, code, tc.want, raw)
		}
	}

	// Query endpoints refuse unknown or unfinished hierarchies.
	code, _ := doJSON(t, http.DefaultClient, "POST", ts.URL+"/v1/partition",
		partitionRequest{Hierarchy: "nope", K: 2}, nil)
	if code != http.StatusNotFound {
		t.Fatalf("partition on unknown hierarchy: %d, want 404", code)
	}
	code, _ = doJSON(t, http.DefaultClient, "POST", ts.URL+"/v1/partition",
		partitionRequest{Hierarchy: "nope", K: 1}, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("k=1: status %d, want 400", code)
	}
}

func TestMetricsAndHealth(t *testing.T) {
	_, ts := testServer(t, Config{})
	g := gen.Grid2D(20, 20)
	gi := ingest(t, ts, metisBytes(t, g), "")
	st := buildWait(t, ts, buildParams{Graph: gi.ID})
	doJSON(t, http.DefaultClient, "POST", ts.URL+"/v1/partition",
		partitionRequest{Hierarchy: st.ID, K: 2}, nil)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		"mlcg_graphs_ingested_total 1",
		"mlcg_builds_completed_total 1",
		"mlcg_queries_partition_total 1",
		"mlcg_build_queue_depth 0",
		"mlcg_graphs_cached 1",
		"mlcg_hierarchies_cached 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q\n%s", want, text)
		}
	}
	// Kernel counters from the build trace must be folded in.
	if !strings.Contains(text, "mlcg_ctr_") {
		t.Errorf("/metrics has no aggregated obs counters\n%s", text)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof: %d", resp.StatusCode)
	}
}

func TestCloseFailsQueuedBuilds(t *testing.T) {
	// One worker, deep queue: stuff the queue, close the server, and the
	// queued-but-never-started builds must fail with a definite error
	// instead of hanging their waiters.
	s := New(Config{BuildWorkers: 1, QueueDepth: 8, Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	gi := ingest(t, ts, metisBytes(t, gen.RMAT(13, 8, 6)), "")
	var ids []string
	for i := 0; i < 4; i++ {
		var st buildStatus
		code, raw := doJSON(t, http.DefaultClient, "POST", ts.URL+"/v1/hierarchies",
			buildParams{Graph: gi.ID, Seed: uint64(i + 1)}, &st)
		if code != http.StatusAccepted && code != http.StatusOK {
			t.Fatalf("enqueue %d: %d %s", i, code, raw)
		}
		ids = append(ids, st.ID)
	}
	s.Close()
	deadline := time.Now().Add(5 * time.Second)
	for _, id := range ids {
		for {
			var st buildStatus
			code, _ := doJSON(t, http.DefaultClient, "GET", ts.URL+"/v1/hierarchies/"+id, nil, &st)
			if code != http.StatusOK {
				t.Fatalf("status %s: %d", id, code)
			}
			if st.Status == "done" || st.Status == "failed" {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("build %s still %q after Close", id, st.Status)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

func TestContentIDStability(t *testing.T) {
	g := gen.Grid2D(10, 10)
	a, err := contentID(g)
	if err != nil {
		t.Fatal(err)
	}
	b, err := contentID(gen.Grid2D(10, 10))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same graph hashed differently: %s vs %s", a, b)
	}
	c, err := contentID(gen.Grid2D(10, 11))
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatal("different graphs collided")
	}
	if fmt.Sprintf("%x", a) == "" {
		t.Fatal("empty id")
	}
}

// TestHostileSizesRefused: an edge-list header may not claim more vertices
// than MaxBodyBytes, and a partition may not ask for more parts than the
// graph has vertices; both would otherwise make a short request cost time
// and memory in proportion to a number it merely states.
func TestHostileSizesRefused(t *testing.T) {
	_, ts := testServer(t, Config{MaxBodyBytes: 1 << 16})
	resp, err := http.Post(ts.URL+"/v1/graphs?format=edgelist", "text/plain", strings.NewReader("100000000 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), "above the limit") {
		t.Fatalf("edge-list header over MaxVertices: status %d body %s", resp.StatusCode, raw)
	}
	gi := ingest(t, ts, metisBytes(t, gen.Grid2D(10, 10)), "")
	st := buildWait(t, ts, buildParams{Graph: gi.ID})
	code, raw2 := doJSON(t, http.DefaultClient, "POST", ts.URL+"/v1/partition", partitionRequest{Hierarchy: st.ID, K: 101}, nil)
	if code != http.StatusBadRequest || !strings.Contains(raw2, "at most") {
		t.Fatalf("k above the vertex count: status %d body %s", code, raw2)
	}
	if code, raw2 = doJSON(t, http.DefaultClient, "POST", ts.URL+"/v1/partition", partitionRequest{Hierarchy: st.ID, K: 100}, nil); code != http.StatusOK {
		t.Fatalf("k equal to the vertex count: status %d body %s", code, raw2)
	}
}
