package serve

import (
	"fmt"
	"net/http"
	"sync"
	"testing"

	"mlcg/internal/gen"
)

// TestConcurrentSharedHierarchyQueries is the satellite regression test
// for the serving data path: N goroutines fire partition, cluster, and
// project queries against ONE shared hierarchy, and every concurrent
// answer must equal the single-goroutine answer for the same request.
// The solvers are deterministic per seed, so any divergence (or a -race
// report) means a query mutated shared hierarchy state.
func TestConcurrentSharedHierarchyQueries(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 2})
	g := gen.RMAT(12, 8, 6)
	gi := ingest(t, ts, binaryBytes(t, g), "binary")
	st := buildWait(t, ts, buildParams{Graph: gi.ID, Builder: "auto", Seed: 5})

	// Serial reference answers, one per request shape.
	type partKey struct {
		k    int
		seed uint64
	}
	partReqs := []partKey{{2, 1}, {4, 1}, {4, 9}, {8, 3}}
	wantPart := map[partKey]partitionResponse{}
	for _, pk := range partReqs {
		var pr partitionResponse
		code, raw := doJSON(t, http.DefaultClient, "POST", ts.URL+"/v1/partition",
			partitionRequest{Hierarchy: st.ID, K: pk.k, Seed: pk.seed, Assignment: true}, &pr)
		if code != http.StatusOK {
			t.Fatalf("serial partition %+v: %d %s", pk, code, raw)
		}
		wantPart[pk] = pr
	}
	var wantClust clusterResponse
	if code, raw := doJSON(t, http.DefaultClient, "POST", ts.URL+"/v1/cluster",
		clusterRequest{Hierarchy: st.ID, Seed: 2, Assignment: true}, &wantClust); code != http.StatusOK {
		t.Fatalf("serial cluster: %d %s", code, raw)
	}
	labels := make([]int32, st.CoarseN)
	for i := range labels {
		labels[i] = int32(i) % 5
	}
	var wantProj projectResponse
	if code, raw := doJSON(t, http.DefaultClient, "POST", ts.URL+"/v1/project",
		projectRequest{Hierarchy: st.ID, Labels: labels}, &wantProj); code != http.StatusOK {
		t.Fatalf("serial project: %d %s", code, raw)
	}

	eq := func(a, b []int32) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}

	const goroutines = 8
	const rounds = 3
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*rounds*(len(partReqs)+2))
	for gid := 0; gid < goroutines; gid++ {
		wg.Add(1)
		go func(gid int) {
			defer wg.Done()
			client := &http.Client{}
			for round := 0; round < rounds; round++ {
				for _, pk := range partReqs {
					var pr partitionResponse
					code, raw, err := requestJSON(client, "POST", ts.URL+"/v1/partition",
						partitionRequest{Hierarchy: st.ID, K: pk.k, Seed: pk.seed, Assignment: true}, &pr)
					if err != nil {
						errs <- fmt.Errorf("g%d partition %+v: %v", gid, pk, err)
						continue
					}
					if code != http.StatusOK {
						errs <- fmt.Errorf("g%d partition %+v: %d %s", gid, pk, code, raw)
						continue
					}
					want := wantPart[pk]
					if pr.Cut != want.Cut || pr.Imbalance != want.Imbalance || !eq(pr.Assignment, want.Assignment) {
						errs <- fmt.Errorf("g%d partition %+v: cut=%d imb=%v differ from serial cut=%d imb=%v",
							gid, pk, pr.Cut, pr.Imbalance, want.Cut, want.Imbalance)
					}
				}
				var cr clusterResponse
				code, raw, err := requestJSON(client, "POST", ts.URL+"/v1/cluster",
					clusterRequest{Hierarchy: st.ID, Seed: 2, Assignment: true}, &cr)
				if err != nil {
					errs <- fmt.Errorf("g%d cluster: %v", gid, err)
				} else if code != http.StatusOK {
					errs <- fmt.Errorf("g%d cluster: %d %s", gid, code, raw)
				} else if cr.K != wantClust.K || cr.Modularity != wantClust.Modularity || !eq(cr.Assignment, wantClust.Assignment) {
					errs <- fmt.Errorf("g%d cluster: k=%d q=%v differ from serial k=%d q=%v",
						gid, cr.K, cr.Modularity, wantClust.K, wantClust.Modularity)
				}
				var prj projectResponse
				code, raw, err = requestJSON(client, "POST", ts.URL+"/v1/project",
					projectRequest{Hierarchy: st.ID, Labels: labels}, &prj)
				if err != nil {
					errs <- fmt.Errorf("g%d project: %v", gid, err)
				} else if code != http.StatusOK {
					errs <- fmt.Errorf("g%d project: %d %s", gid, code, raw)
				} else if !eq(prj.Assignment, wantProj.Assignment) {
					errs <- fmt.Errorf("g%d project: assignment differs from serial", gid)
				}
			}
		}(gid)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestConcurrentBuildsDistinctGraphs drives the build pipeline at its
// admission limits: distinct builds from many goroutines, a tiny queue,
// one worker. Every request must resolve to 202/200 (admitted or cached)
// or 429 (shed) — never a panic, a hang, or a corrupted response — and at
// least one build must complete.
func TestConcurrentBuildsDistinctGraphs(t *testing.T) {
	s, ts := testServer(t, Config{BuildWorkers: 1, QueueDepth: 2, Workers: 1})

	var ids []string
	for i := 0; i < 6; i++ {
		gi := ingest(t, ts, metisBytes(t, gen.Grid2D(40+i, 40)), "")
		ids = append(ids, gi.ID)
	}

	var wg sync.WaitGroup
	var mu sync.Mutex
	counts := map[int]int{}
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			code, _, err := requestJSON(&http.Client{}, "POST", ts.URL+"/v1/hierarchies",
				buildParams{Graph: id, Seed: uint64(i)}, nil)
			if err != nil {
				t.Errorf("build %d: %v", i, err)
				return
			}
			mu.Lock()
			counts[code]++
			mu.Unlock()
		}(i, id)
	}
	wg.Wait()

	admitted := counts[http.StatusAccepted] + counts[http.StatusOK]
	shed := counts[http.StatusTooManyRequests]
	if admitted+shed != len(ids) {
		t.Fatalf("unexpected status mix: %v", counts)
	}
	if admitted == 0 {
		t.Fatalf("everything shed: %v", counts)
	}
	if shed > 0 && s.stats.buildsShed.Load() != int64(shed) {
		t.Fatalf("shed counter %d, want %d", s.stats.buildsShed.Load(), shed)
	}
}

// TestConcurrentDuplicateBuildsDedupe fires the same build request from
// many goroutines at once: the content-addressed cache must coalesce them
// onto one build (admitted exactly once; everyone else is a cache hit on
// the queued/running/done entry) and all waiters must see the same result.
func TestConcurrentDuplicateBuildsDedupe(t *testing.T) {
	s, ts := testServer(t, Config{BuildWorkers: 2, QueueDepth: 8, Workers: 2})
	gi := ingest(t, ts, metisBytes(t, gen.Grid2D(48, 48)), "")

	const callers = 10
	var wg sync.WaitGroup
	idCh := make(chan string, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var st buildStatus
			code, raw, err := requestJSON(&http.Client{}, "POST", ts.URL+"/v1/hierarchies?wait=1",
				buildParams{Graph: gi.ID, Seed: 77}, &st)
			if err != nil {
				t.Errorf("dup build: %v", err)
				return
			}
			if code != http.StatusOK || st.Status != "done" {
				t.Errorf("dup build: %d %s", code, raw)
				return
			}
			idCh <- st.ID
		}()
	}
	wg.Wait()
	close(idCh)
	first := ""
	for id := range idCh {
		if first == "" {
			first = id
		} else if id != first {
			t.Fatalf("duplicate requests produced different hierarchy ids: %s vs %s", id, first)
		}
	}
	if got := s.stats.buildsCompleted.Load(); got != 1 {
		t.Fatalf("the build ran %d times, want exactly 1 (dedupe failed)", got)
	}
}
