package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"mlcg/internal/cluster"
	"mlcg/internal/coarsen"
	"mlcg/internal/gen"
	"mlcg/internal/graph"
	"mlcg/internal/obs"
	"mlcg/internal/partition"
)

func TestFlightRecorderKeepSlowest(t *testing.T) {
	f := newFlightRecorder(8) // slowCap 2, recent ring 6
	slow := FlightRecord{ID: "slow", Kind: "build", DurationMS: 500}
	f.record(slow)
	for i := 0; i < 50; i++ {
		f.record(FlightRecord{ID: fmt.Sprintf("fast-%d", i), Kind: "project", DurationMS: 0.1})
	}
	snap := f.snapshot()
	if len(snap.Recent) != 6 {
		t.Fatalf("recent ring holds %d, want 6", len(snap.Recent))
	}
	if snap.Recent[0].ID != "fast-49" {
		t.Fatalf("recent not newest-first: %v", snap.Recent[0].ID)
	}
	// The slow build was evicted from the recent ring long ago but must
	// survive in the reserved slowest set, at the top.
	if len(snap.Slowest) == 0 || snap.Slowest[0].ID != "slow" {
		t.Fatalf("slowest set lost the 500ms build: %+v", snap.Slowest)
	}
	for i := 1; i < len(snap.Slowest); i++ {
		if snap.Slowest[i].DurationMS > snap.Slowest[i-1].DurationMS {
			t.Fatalf("slowest not ordered by duration: %+v", snap.Slowest)
		}
	}

	// A new slower record displaces the current minimum of the reserve.
	f.record(FlightRecord{ID: "slower", Kind: "build", DurationMS: 900})
	snap = f.snapshot()
	if snap.Slowest[0].ID != "slower" {
		t.Fatalf("keep-slowest did not admit the 900ms record: %+v", snap.Slowest)
	}
	found := false
	for _, r := range snap.Slowest {
		if r.ID == "slow" {
			found = true
		}
	}
	if !found {
		t.Fatalf("admitting a slower record evicted the wrong entry: %+v", snap.Slowest)
	}
}

// TestDebugRequestsRetainsSlowestBuild runs the endpoint-level contract: a
// tiny recorder, one (slow) build, then enough fast queries to cycle the
// recent ring several times — /debug/requests must still show the build in
// its slowest set.
func TestDebugRequestsRetainsSlowestBuild(t *testing.T) {
	_, ts := testServer(t, Config{FlightRecorderSize: 8})
	g := gen.Grid2D(24, 24)
	gi := ingest(t, ts, metisBytes(t, g), "")
	st := buildWait(t, ts, buildParams{Graph: gi.ID})

	labels := make([]int32, st.CoarseN)
	for i := 0; i < 20; i++ {
		code, raw := doJSON(t, http.DefaultClient, "POST", ts.URL+"/v1/project",
			projectRequest{Hierarchy: st.ID, Labels: labels}, nil)
		if code != http.StatusOK {
			t.Fatalf("project %d: %d %s", i, code, raw)
		}
	}

	resp, err := http.Get(ts.URL + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/requests: status %d: %s", resp.StatusCode, body)
	}
	var snap flightSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("bad /debug/requests JSON: %v\n%s", err, body)
	}
	if len(snap.Recent) == 0 {
		t.Fatal("empty recent ring after load")
	}
	var build *FlightRecord
	for i := range snap.Slowest {
		if snap.Slowest[i].Kind == "build" {
			build = &snap.Slowest[i]
			break
		}
	}
	if build == nil {
		t.Fatalf("slowest set lost the build after 20 queries: %s", body)
	}
	if build.Target != st.ID || build.Outcome != "ok" || build.Levels < 1 {
		t.Fatalf("retained build record malformed: %+v", build)
	}
	if len(build.Counters) == 0 {
		t.Fatalf("build record carries no kernel counters: %+v", build)
	}
}

// TestBuildDeadlineOutcome drives a build into its timeout and checks the
// whole failure telemetry chain: failed status over HTTP, a flight record
// with outcome "deadline", and an Error-level log line carrying the dump.
func TestBuildDeadlineOutcome(t *testing.T) {
	var sink lockedBuffer
	logger := slog.New(slog.NewJSONHandler(&sink, nil))
	s, ts := testServer(t, Config{BuildTimeout: time.Nanosecond, Logger: logger})
	gi := ingest(t, ts, metisBytes(t, gen.Grid2D(24, 24)), "")

	var st buildStatus
	code, raw := doJSON(t, http.DefaultClient, "POST", ts.URL+"/v1/hierarchies?wait=1",
		buildParams{Graph: gi.ID}, &st)
	if code != http.StatusOK || st.Status != "failed" {
		t.Fatalf("expected failed build, got code %d status %+v (%s)", code, st, raw)
	}

	snap := s.flight.snapshot()
	var rec *FlightRecord
	for i := range snap.Recent {
		if snap.Recent[i].Kind == "build" {
			rec = &snap.Recent[i]
			break
		}
	}
	if rec == nil {
		t.Fatalf("no build flight record after deadline: %+v", snap)
	}
	if rec.Outcome != "deadline" {
		t.Fatalf("outcome %q, want deadline (error %q)", rec.Outcome, rec.Error)
	}

	var entry struct {
		Level   string `json:"level"`
		Msg     string `json:"msg"`
		Outcome string `json:"outcome"`
		Error   string `json:"error"`
	}
	found := false
	for _, line := range strings.Split(strings.TrimSpace(sink.String()), "\n") {
		if err := json.Unmarshal([]byte(line), &entry); err != nil {
			continue
		}
		if entry.Msg == "build" && entry.Level == "ERROR" && entry.Outcome == "deadline" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no Error-level deadline dump in the log:\n%s", sink.String())
	}
}

// TestBuildFlightCountersMatchDirectRun checks that a build's flight
// record carries exactly the kernel counters of a direct traced RunCtx on
// the same graph and parameters, so the server's per-request trace loses
// or misplaces nothing. cas_retries depends on the worker interleaving at
// p > 1 and is compared only at p = 1.
func TestBuildFlightCountersMatchDirectRun(t *testing.T) {
	payload := metisBytes(t, gen.RGG(3000, 0, 11))
	for _, workers := range []int{1, 2} {
		s, ts := testServer(t, Config{Workers: workers})
		gi := ingest(t, ts, payload, "")
		params := buildParams{Graph: gi.ID, Seed: 5}
		st := buildWait(t, ts, params)
		var got map[string]int64
		for _, rec := range s.flight.snapshot().Recent {
			if rec.Kind == "build" && rec.Target == st.ID {
				got = rec.Counters
			}
		}
		if got["radix_passes"] == 0 {
			t.Fatalf("workers=%d: flight record %v has no radix passes; the graph no longer reaches the radix path", workers, got)
		}

		g, err := graph.ReadMetis(bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		p := params.normalize()
		tr := obs.NewTrace("direct")
		c := coarsen.Coarsener{
			Mapper: coarsen.HEC{}, Builder: coarsen.BuildSort{},
			Cutoff: p.Cutoff, MaxLevels: p.MaxLevels, Seed: p.Seed, Workers: workers,
		}
		if _, err := c.RunCtx(obs.NewContext(context.Background(), tr), g); err != nil {
			t.Fatal(err)
		}
		tr.Stop()
		want := tr.Root.Counters()
		if workers > 1 {
			delete(got, "cas_retries")
			delete(want, "cas_retries")
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: flight-record counters\n%v\nwant the direct run's\n%v", workers, got, want)
		}
	}
}

// TestQueryFlightCountersMatchDirectCall is the query-side twin of
// TestBuildFlightCountersMatchDirectRun: a partition query's and a cluster
// query's flight records carry exactly the counters of a direct KWayFM or
// Louvain call on the same coarsest graph, traced through the options'
// Span field, so the handlers hand their request trace down without
// losing or misplacing a count. cas_retries is compared only at p = 1.
func TestQueryFlightCountersMatchDirectCall(t *testing.T) {
	payload := metisBytes(t, gen.RGG(3000, 0, 11))
	for _, workers := range []int{1, 2} {
		s, ts := testServer(t, Config{Workers: workers})
		gi := ingest(t, ts, payload, "")
		st := buildWait(t, ts, buildParams{Graph: gi.ID, Seed: 5})
		h, _, err := s.getHierarchy(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range []struct {
			kind   string
			body   any
			direct func(span *obs.Span) error
		}{
			{"partition", partitionRequest{Hierarchy: st.ID, K: 4, Seed: 3}, func(span *obs.Span) error {
				_, err := partition.KWayFM(h.Coarsest(), 4, partition.KWayOptions{Seed: 3, Workers: workers, Span: span})
				return err
			}},
			{"cluster", clusterRequest{Hierarchy: st.ID, Seed: 3}, func(span *obs.Span) error {
				_, err := cluster.Louvain(h.Coarsest(), cluster.Options{Seed: 3, Workers: workers, Span: span})
				return err
			}},
		} {
			if code, raw := doJSON(t, http.DefaultClient, "POST", ts.URL+"/v1/"+q.kind, q.body, nil); code != http.StatusOK {
				t.Fatalf("workers=%d %s: status %d body %s", workers, q.kind, code, raw)
			}
			var got map[string]int64
			for _, rec := range s.flight.snapshot().Recent {
				if rec.Kind == q.kind && rec.Target == st.ID {
					got = rec.Counters
				}
			}
			tr := obs.NewTrace("direct")
			if err := q.direct(tr.Root); err != nil {
				t.Fatal(err)
			}
			tr.Stop()
			want := tr.Root.Counters()
			if len(want) == 0 {
				t.Fatalf("workers=%d %s: the direct call counted nothing", workers, q.kind)
			}
			if workers > 1 {
				delete(got, "cas_retries")
				delete(want, "cas_retries")
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("workers=%d %s: flight-record counters\n%v\nwant the direct call's\n%v", workers, q.kind, got, want)
			}
		}
	}
}
