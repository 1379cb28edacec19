package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"mlcg/internal/gen"
	"mlcg/internal/hierfmt"
)

// FuzzServeHandlers drives Server.Handler() directly (no listener, so a
// handler panic fails the fuzzer) with arbitrary ingest bodies in every
// format and arbitrary JSON for the build and query endpoints, against a
// test-sized server that holds one small graph and its hierarchy. Every
// response must be a 2xx, or an error status other than 500 that carries
// a JSON error body; 429 and 507 are legitimate under load.
func FuzzServeHandlers(f *testing.F) {
	s := New(Config{
		Workers: 1, BuildWorkers: 1, QueueDepth: 4, BuildTimeout: 5 * time.Second,
		MaxBodyBytes: 1 << 20, MaxGraphs: 32, MaxHierarchies: 32,
	})
	f.Cleanup(s.Close)
	h := s.Handler()
	serve := func(path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		return rec
	}
	mustJSON := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}

	g := gen.RGG(300, 0, 4)
	var edgelist, metis, binary, mlcg bytes.Buffer
	if err := g.WriteEdgeList(&edgelist); err != nil {
		f.Fatal(err)
	}
	if err := g.WriteMetis(&metis); err != nil {
		f.Fatal(err)
	}
	if err := g.WriteBinary(&binary); err != nil {
		f.Fatal(err)
	}
	if err := hierfmt.SaveGraph(&mlcg, g, hierfmt.SaveOptions{}); err != nil {
		f.Fatal(err)
	}
	var gi graphInfo
	if rec := serve("/v1/graphs", metis.Bytes()); rec.Code != http.StatusCreated || json.Unmarshal(rec.Body.Bytes(), &gi) != nil {
		f.Fatalf("ingest: %d %s", rec.Code, rec.Body)
	}
	var st buildStatus
	if rec := serve("/v1/hierarchies?wait=1", mustJSON(buildParams{Graph: gi.ID})); rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &st) != nil || st.Status != "done" {
		f.Fatalf("build: %d %s", rec.Code, rec.Body)
	}
	hier, _, err := s.getHierarchy(st.ID)
	if err != nil {
		f.Fatal(err)
	}

	routes := []string{
		"/v1/graphs?format=edgelist", "/v1/graphs?format=metis",
		"/v1/graphs?format=binary", "/v1/graphs?format=mlcg",
		"/v1/hierarchies", "/v1/partition", "/v1/cluster", "/v1/project",
	}
	for i, body := range [][]byte{
		edgelist.Bytes(), metis.Bytes(), binary.Bytes(), mlcg.Bytes(),
		mustJSON(buildParams{Graph: gi.ID, Mapper: "mis2", Builder: "hash", Seed: 3}),
		mustJSON(partitionRequest{Hierarchy: st.ID, K: 4, Assignment: true}),
		mustJSON(clusterRequest{Hierarchy: st.ID, Seed: 2}),
		mustJSON(projectRequest{Hierarchy: st.ID, Labels: make([]int32, hier.Coarsest().N())}),
	} {
		f.Add(uint8(i), body)
	}

	f.Fuzz(func(t *testing.T, route uint8, body []byte) {
		path := routes[int(route)%len(routes)]
		rec := serve(path, body)
		if rec.Code < 300 {
			return
		}
		if rec.Code == http.StatusInternalServerError {
			t.Fatalf("%s: 500: %s", path, rec.Body)
		}
		var e apiError
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Fatalf("%s: status %d without a JSON error body: %q", path, rec.Code, rec.Body)
		}
	})
}
