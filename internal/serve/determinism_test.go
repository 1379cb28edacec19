package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"mlcg/internal/gen"
)

// dropTimings removes every field whose name ends in "_ms" from a decoded
// JSON value; wall times are the only part of a response allowed to vary.
func dropTimings(v any) {
	switch x := v.(type) {
	case map[string]any:
		for k, e := range x {
			if strings.HasSuffix(k, "_ms") {
				delete(x, k)
				continue
			}
			dropTimings(e)
		}
	case []any:
		for _, e := range x {
			dropTimings(e)
		}
	}
}

// TestServeDeterminism sends one request sequence — ingest, build with
// ?wait=1, build status, k-way partitions and a clustering, both with
// assignments — to servers at every Workers × BuildWorkers combination,
// and requires every response body to be byte-identical once the
// timing fields are dropped: the service inherits the kernels'
// worker-count independence end to end.
func TestServeDeterminism(t *testing.T) {
	var payloads [][]byte
	for _, seed := range []uint64{21, 22, 23} {
		payloads = append(payloads, metisBytes(t, gen.RGG(4000, 0, seed)))
	}
	var want []string
	for _, workers := range []int{1, 2, 4, 8} {
		for _, buildWorkers := range []int{1, 2} {
			name := fmt.Sprintf("workers=%d build_workers=%d", workers, buildWorkers)
			_, ts := testServer(t, Config{Workers: workers, BuildWorkers: buildWorkers})
			var got []string
			call := func(method, path string, body any) map[string]any {
				t.Helper()
				var raw []byte
				switch b := body.(type) {
				case []byte:
					raw = b
				case nil:
				default:
					var err error
					if raw, err = json.Marshal(b); err != nil {
						t.Fatal(err)
					}
				}
				req, err := http.NewRequest(method, ts.URL+path, bytes.NewReader(raw))
				if err != nil {
					t.Fatal(err)
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				var v map[string]any
				if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
					t.Fatalf("%s: %s %s: %v", name, method, path, err)
				}
				if resp.StatusCode >= 300 {
					t.Fatalf("%s: %s %s: status %d: %v", name, method, path, resp.StatusCode, v)
				}
				dropTimings(v)
				canon, err := json.Marshal(v)
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, fmt.Sprintf("%s %s %s", method, path, canon))
				return v
			}
			for i, payload := range payloads {
				gi := call("POST", "/v1/graphs", payload)
				st := call("POST", "/v1/hierarchies?wait=1", buildParams{Graph: gi["id"].(string), Seed: uint64(i + 1)})
				id := st["id"].(string)
				call("GET", "/v1/hierarchies/"+id, nil)
				for _, k := range []int{2, 4, 8} {
					call("POST", "/v1/partition", partitionRequest{Hierarchy: id, K: k, Seed: 3, Assignment: true})
				}
				call("POST", "/v1/cluster", clusterRequest{Hierarchy: id, Seed: 3, Assignment: true})
			}
			if want == nil {
				want = got
				if !strings.Contains(want[4], `"assignment":[`) {
					t.Fatalf("partition response carries no assignment: %.200s", want[4])
				}
				continue
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: response %d differs from workers=1 build_workers=1:\n got %.300s\nwant %.300s", name, i, got[i], want[i])
				}
			}
		}
	}
	t.Logf("%d responses identical across 8 configurations", len(want))
}
