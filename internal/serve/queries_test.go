package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"mlcg/internal/cluster"
	"mlcg/internal/gen"
	"mlcg/internal/graph"
	"mlcg/internal/obs"
	"mlcg/internal/partition"
)

// queryAnswers is what one hierarchy answers to the partition queries at
// k = 2, 4, 8, 16 and to one cluster query, all with the assignment.
type queryAnswers struct {
	parts []partitionResponse
	clus  clusterResponse
}

// askAll sends the queryAnswers requests for hierarchy id and checks every
// reported cut, imbalance and modularity against the level-0 formula
// applied to the assignment the same response returns, g being level 0.
// Each partition query is repeated without the assignment, which must
// return the same numbers and no assignment.
func askAll(t *testing.T, ts *httptest.Server, id string, g *graph.Graph, name string) queryAnswers {
	t.Helper()
	var out queryAnswers
	for _, k := range []int{2, 4, 8, 16} {
		var pr partitionResponse
		code, raw := doJSON(t, http.DefaultClient, "POST", ts.URL+"/v1/partition",
			partitionRequest{Hierarchy: id, K: k, Seed: 3, Assignment: true}, &pr)
		if code != http.StatusOK {
			t.Fatalf("%s k=%d: partition %d %s", name, k, code, raw)
		}
		if len(pr.Assignment) != g.N() {
			t.Fatalf("%s k=%d: assignment covers %d vertices, want %d", name, k, len(pr.Assignment), g.N())
		}
		if cut := partition.KWayEdgeCut(g, pr.Assignment); pr.Cut != cut {
			t.Errorf("%s k=%d: served cut %d, level 0 cuts %d", name, k, pr.Cut, cut)
		}
		if imb := partition.KWayImbalance(g, pr.Assignment, k); math.Float64bits(pr.Imbalance) != math.Float64bits(imb) {
			t.Errorf("%s k=%d: served imbalance %v, level 0 reads %v", name, k, pr.Imbalance, imb)
		}
		var bare partitionResponse
		code, raw = doJSON(t, http.DefaultClient, "POST", ts.URL+"/v1/partition",
			partitionRequest{Hierarchy: id, K: k, Seed: 3}, &bare)
		if code != http.StatusOK {
			t.Fatalf("%s k=%d: partition without assignment %d %s", name, k, code, raw)
		}
		if strings.Contains(raw, `"assignment"`) {
			t.Errorf("%s k=%d: a query without assignment returned one", name, k)
		}
		if bare.Cut != pr.Cut || bare.Imbalance != pr.Imbalance {
			t.Errorf("%s k=%d: cut %d imbalance %v without assignment, %d %v with it",
				name, k, bare.Cut, bare.Imbalance, pr.Cut, pr.Imbalance)
		}
		pr.ElapsedMS = 0
		out.parts = append(out.parts, pr)
	}
	code, raw := doJSON(t, http.DefaultClient, "POST", ts.URL+"/v1/cluster",
		clusterRequest{Hierarchy: id, Seed: 3, Assignment: true}, &out.clus)
	if code != http.StatusOK {
		t.Fatalf("%s: cluster %d %s", name, code, raw)
	}
	if q := cluster.Modularity(g, out.clus.Assignment); math.Float64bits(out.clus.Modularity) != math.Float64bits(q) {
		t.Errorf("%s: served modularity %v, level 0 reads %v", name, out.clus.Modularity, q)
	}
	distinct := map[int32]bool{}
	for _, l := range out.clus.Assignment {
		distinct[l] = true
	}
	if len(distinct) != int(out.clus.K) {
		t.Errorf("%s: k %d, the assignment holds %d clusters", name, out.clus.K, len(distinct))
	}
	code, raw = doJSON(t, http.DefaultClient, "POST", ts.URL+"/v1/cluster",
		clusterRequest{Hierarchy: id, Seed: 3}, nil)
	if code != http.StatusOK || strings.Contains(raw, `"assignment"`) {
		t.Errorf("%s: cluster without assignment: %d %s", name, code, raw)
	}
	out.clus.ElapsedMS = 0
	return out
}

// equalAnswers reports whether two queryAnswers agree in every field.
func equalAnswers(a, b queryAnswers) bool {
	return fmt.Sprint(a.parts, a.clus) == fmt.Sprint(b.parts, b.clus)
}

// TestServeAnswersMatchLevelZero: serve evaluates cut, imbalance and
// modularity on the coarsest graph, and each must equal the level-0
// formula on the assignment the response returns — on a fresh build, and
// again on a second server that loads the hierarchies from the first one's
// cache directory, where the first query computes the self-weights of a
// disk-loaded hierarchy.
func TestServeAnswersMatchLevelZero(t *testing.T) {
	dir := t.TempDir()
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"rgg", gen.RGG(3000, 0, 1)},
		{"ba", gen.BA(2000, 4, 2)},
		{"grid", gen.Grid2D(40, 40)},
	}
	s1, ts1 := testServer(t, Config{CacheDir: dir})
	ids := make([]string, len(graphs))
	want := make([]queryAnswers, len(graphs))
	for i, tg := range graphs {
		gi := ingest(t, ts1, metisBytes(t, tg.g), "")
		st := buildWait(t, ts1, buildParams{Graph: gi.ID, Seed: uint64(i + 1)})
		if st.Levels < 2 {
			t.Fatalf("%s: %d levels, want at least 2", tg.name, st.Levels)
		}
		ids[i] = st.ID
		want[i] = askAll(t, ts1, st.ID, tg.g, tg.name)
	}
	// Close drains the build workers, so every spill is on disk after it.
	ts1.Close()
	s1.Close()

	s2, ts2 := testServer(t, Config{CacheDir: dir})
	for i, tg := range graphs {
		if got := askAll(t, ts2, ids[i], tg.g, tg.name+" warm"); !equalAnswers(got, want[i]) {
			t.Errorf("%s: the warm-restarted server answers differently", tg.name)
		}
	}
	if got := s2.stats.buildsCompleted.Load(); got != 0 {
		t.Errorf("warm restart rebuilt %d hierarchies", got)
	}
	if got := s2.stats.hierDiskHits.Load(); got != int64(len(graphs)) {
		t.Errorf("disk hits %d, want %d", got, len(graphs))
	}
}

// TestColdConcurrentQueries: goroutines released at once send cluster and
// partition queries to a hierarchy no query has touched, so they race the
// first computation of its self-weights (run it with -race). Every answer
// must be equal, first on hierarchies in memory, then on a restarted
// server where they are only on disk. Four hierarchies give eight cold
// starts per run: the race detector orders whatever a handler did before
// its response write before every later socket read, so it sees a racy
// first computation only when two handlers overlap.
func TestColdConcurrentQueries(t *testing.T) {
	dir := t.TempDir()
	g := gen.RGG(3000, 0, 4)
	s1, ts1 := testServer(t, Config{Workers: 2, CacheDir: dir})
	gi := ingest(t, ts1, metisBytes(t, g), "")
	var ids []string
	for seed := uint64(5); seed < 9; seed++ {
		ids = append(ids, buildWait(t, ts1, buildParams{Graph: gi.ID, Seed: seed}).ID)
	}

	const goroutines = 8
	race := func(ts *httptest.Server, id, leg string) queryAnswers {
		clusterBody, err := json.Marshal(clusterRequest{Hierarchy: id, Seed: 3, Assignment: true})
		if err != nil {
			t.Fatal(err)
		}
		partitionBody, err := json.Marshal(partitionRequest{Hierarchy: id, K: 4, Seed: 3, Assignment: true})
		if err != nil {
			t.Fatal(err)
		}
		// bodies[i] holds goroutine i's cluster and partition responses;
		// half the goroutines ask for the clustering first.
		bodies := make([][2][]byte, goroutines)
		errs := make(chan error, 3*goroutines)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < goroutines; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				// A connection of its own, opened before the start, lets
				// every goroutine's first query reach the server at once.
				tr := &http.Transport{}
				defer tr.CloseIdleConnections()
				client := &http.Client{Transport: tr}
				if resp, err := client.Get(ts.URL + "/healthz"); err != nil {
					errs <- err
				} else {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
				<-start
				for j := 0; j < 2; j++ {
					q := (i + j) % 2
					path, body := "/v1/cluster", clusterBody
					if q == 1 {
						path, body = "/v1/partition", partitionBody
					}
					resp, err := client.Post(ts.URL+path, "application/json", bytes.NewReader(body))
					if err != nil {
						errs <- err
						continue
					}
					raw, err := io.ReadAll(resp.Body)
					resp.Body.Close()
					if err != nil || resp.StatusCode != http.StatusOK {
						errs <- fmt.Errorf("%s goroutine %d %s: status %d %s (%v)", leg, i, path, resp.StatusCode, raw, err)
						continue
					}
					bodies[i][q] = raw
				}
			}(i)
		}
		close(start)
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		answers := make([]queryAnswers, goroutines)
		for i := range answers {
			var pr partitionResponse
			if err := json.Unmarshal(bodies[i][0], &answers[i].clus); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(bodies[i][1], &pr); err != nil {
				t.Fatal(err)
			}
			pr.ElapsedMS, answers[i].clus.ElapsedMS = 0, 0
			answers[i].parts = []partitionResponse{pr}
			if i > 0 && !equalAnswers(answers[i], answers[0]) {
				t.Fatalf("%s: goroutine %d answers differently from goroutine 0", leg, i)
			}
		}
		if q := cluster.Modularity(g, answers[0].clus.Assignment); math.Float64bits(answers[0].clus.Modularity) != math.Float64bits(q) {
			t.Fatalf("%s: served modularity %v, level 0 reads %v", leg, answers[0].clus.Modularity, q)
		}
		return answers[0]
	}
	hot := make([]queryAnswers, len(ids))
	for i, id := range ids {
		hot[i] = race(ts1, id, "in memory")
	}
	ts1.Close()
	s1.Close()

	_, ts2 := testServer(t, Config{Workers: 2, CacheDir: dir})
	for i, id := range ids {
		if cold := race(ts2, id, "on disk"); !equalAnswers(cold, hot[i]) {
			t.Errorf("hierarchy %s: the restarted server answers differently", id)
		}
	}
}

// TestProjectionSpan: an assignment's projection runs under one
// "<kind>:project" child of the request's span and gives what
// ProjectToFine gives; a hierarchy without levels opens no span.
func TestProjectionSpan(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 2})
	gi := ingest(t, ts, metisBytes(t, gen.Grid2D(40, 40)), "")
	deep := buildWait(t, ts, buildParams{Graph: gi.ID})
	flat := buildWait(t, ts, buildParams{Graph: gi.ID, Cutoff: 40 * 40})
	if deep.Levels < 2 || flat.Levels != 0 {
		t.Fatalf("levels %d and %d, want at least 2 and 0", deep.Levels, flat.Levels)
	}
	for _, tc := range []struct {
		id    string
		kind  int
		spans []string
	}{
		{deep.ID, qPartition, []string{"partition:project"}},
		{deep.ID, qCluster, []string{"cluster:project"}},
		{deep.ID, qProject, []string{"project:project"}},
		{flat.ID, qPartition, nil},
	} {
		h, _, err := s.getHierarchy(tc.id)
		if err != nil {
			t.Fatal(err)
		}
		labels := make([]int32, h.Coarsest().N())
		for i := range labels {
			labels[i] = int32(i % 5)
		}
		tr := obs.NewTrace("query")
		q := &queryObs{s: s, kind: tc.kind}
		got := q.projectToFine(h, labels, tr.Root)
		tr.Stop()
		var spans []string
		for _, c := range tr.Root.Children() {
			spans = append(spans, c.Name())
		}
		if !slices.Equal(spans, tc.spans) {
			t.Errorf("%s over %d levels: child spans %q, want %q", queryKindNames[tc.kind], h.Levels(), spans, tc.spans)
		}
		if !slices.Equal(got, h.ProjectToFine(labels)) {
			t.Errorf("%s over %d levels: projection differs from ProjectToFine", queryKindNames[tc.kind], h.Levels())
		}
	}
}
