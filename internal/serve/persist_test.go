package serve

import (
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mlcg/internal/gen"
	"mlcg/internal/hierfmt"
)

// TestWarmRestart is the persistence contract end to end: build on one
// server incarnation, kill it, start a fresh one on the same cache dir, and
// the same request is served from disk — no rebuild, no re-ingest.
func TestWarmRestart(t *testing.T) {
	dir := t.TempDir()
	g := gen.Grid2D(40, 40)

	// Incarnation one: ingest, build, spill.
	s1, ts1 := testServer(t, Config{CacheDir: dir})
	info := ingest(t, ts1, metisBytes(t, g), "")
	st := buildWait(t, ts1, buildParams{Graph: info.ID})
	// The spill runs on the build worker after ?wait=1 is released; Close
	// drains the build workers, so the spill is done once it returns.
	ts1.Close()
	s1.Close()
	if got := s1.stats.hierSpills.Load(); got != 1 {
		t.Fatalf("spills after build: %d, want 1", got)
	}
	path := filepath.Join(dir, st.ID+hierfmt.FileExt)
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("spill file: %v", err)
	}
	// The spilled container stands alone: loadable, parameters in META.
	if _, meta, err := hierfmt.LoadFile(path, hierfmt.LoadOptions{FullValidate: true}); err != nil {
		t.Fatalf("spilled container unreadable: %v", err)
	} else if !strings.Contains(string(meta), info.ID) {
		t.Fatalf("META %q does not reference the graph id", meta)
	}

	// Incarnation two: empty caches, same dir. The build request must be
	// answered from disk — note the graph is NOT re-ingested first.
	s2, ts2 := testServer(t, Config{CacheDir: dir})
	st2 := buildWait(t, ts2, buildParams{Graph: info.ID})
	if st2.ID != st.ID {
		t.Fatalf("restart changed hierarchy id: %s vs %s", st2.ID, st.ID)
	}
	if !st2.Cached {
		t.Error("disk-served build not marked cached")
	}
	if st2.Levels != st.Levels || st2.CoarseN != st.CoarseN {
		t.Errorf("disk hierarchy shape %d/%d, want %d/%d", st2.Levels, st2.CoarseN, st.Levels, st.CoarseN)
	}
	if got := s2.stats.buildsCompleted.Load(); got != 0 {
		t.Errorf("restart recoarsened: builds_completed=%d, want 0", got)
	}
	if got := s2.stats.hierDiskHits.Load(); got != 1 {
		t.Errorf("disk hits: %d, want 1", got)
	}
	if got := s2.stats.hierSpills.Load(); got != 0 {
		t.Errorf("disk hit re-spilled: %d", got)
	}

	// Queries work against the disk-loaded hierarchy.
	var part struct {
		Parts int `json:"parts"`
	}
	code, raw := doJSON(t, http.DefaultClient, "POST", ts2.URL+"/v1/partition",
		map[string]any{"hierarchy": st.ID, "k": 4}, &part)
	if code != http.StatusOK {
		t.Fatalf("partition on warm hierarchy: %d %s", code, raw)
	}

	// Incarnation three: the query path alone (no build request first)
	// resolves the id from disk too.
	s3, ts3 := testServer(t, Config{CacheDir: dir})
	code, raw = doJSON(t, http.DefaultClient, "POST", ts3.URL+"/v1/partition",
		map[string]any{"hierarchy": st.ID, "k": 4}, &part)
	if code != http.StatusOK {
		t.Fatalf("query-first warm restart: %d %s", code, raw)
	}
	if got := s3.stats.hierDiskHits.Load(); got != 1 {
		t.Errorf("query-first disk hits: %d, want 1", got)
	}
	resp, err := http.Get(ts3.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw2, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw2)
	for _, want := range []string{
		"mlcg_hier_disk_hits_total 1",
		"mlcg_hier_spills_total 0",
		"mlcg_hier_load_seconds_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestNoCacheDirNoSpill pins the default: persistence fully off.
func TestNoCacheDirNoSpill(t *testing.T) {
	s, ts := testServer(t, Config{})
	info := ingest(t, ts, metisBytes(t, gen.Grid2D(20, 20)), "")
	buildWait(t, ts, buildParams{Graph: info.ID})
	if got := s.stats.hierSpills.Load(); got != 0 {
		t.Errorf("spills without CacheDir: %d", got)
	}
	if got := s.stats.hierDiskMisses.Load(); got != 0 {
		t.Errorf("disk probes without CacheDir: %d", got)
	}
}

// TestCorruptCacheFile: a damaged container is a counted load error and a
// normal rebuild, never a wrong answer or a crash.
func TestCorruptCacheFile(t *testing.T) {
	dir := t.TempDir()
	g := gen.Grid2D(25, 25)

	s1, ts1 := testServer(t, Config{CacheDir: dir})
	info := ingest(t, ts1, metisBytes(t, g), "")
	st := buildWait(t, ts1, buildParams{Graph: info.ID})
	ts1.Close()
	s1.Close()

	// Flip one payload byte: header parses, a section checksum won't.
	path := filepath.Join(dir, st.ID+hierfmt.FileExt)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, ts2 := testServer(t, Config{CacheDir: dir})
	ingest(t, ts2, metisBytes(t, g), "")
	st2 := buildWait(t, ts2, buildParams{Graph: info.ID})
	if st2.Cached {
		t.Error("corrupt container served as a cache hit")
	}
	if got := s2.stats.hierLoadErrors.Load(); got != 1 {
		t.Errorf("load errors: %d, want 1", got)
	}
	if got := s2.stats.buildsCompleted.Load(); got != 1 {
		t.Errorf("rebuild after corruption: builds_completed=%d, want 1", got)
	}
	// The rebuild's spill replaced the corrupt file with a valid one. The
	// spill follows the waiter's release; Close waits for it.
	ts2.Close()
	s2.Close()
	if _, _, err := hierfmt.LoadFile(path, hierfmt.LoadOptions{}); err != nil {
		t.Errorf("respilled container still unreadable: %v", err)
	}
}

// TestRenamedCacheFileRejected: content addressing holds on disk — a file
// renamed to another id fails the META integrity check.
func TestRenamedCacheFileRejected(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := testServer(t, Config{CacheDir: dir})
	info := ingest(t, ts1, metisBytes(t, gen.Grid2D(20, 20)), "")
	st := buildWait(t, ts1, buildParams{Graph: info.ID})
	ts1.Close()
	s1.Close()

	// Pose the spilled container as a different parameter set's cache slot.
	other := buildParams{Graph: info.ID, Seed: 999}.normalize()
	src := filepath.Join(dir, st.ID+hierfmt.FileExt)
	dst := filepath.Join(dir, other.id()+hierfmt.FileExt)
	if err := os.Rename(src, dst); err != nil {
		t.Fatal(err)
	}

	s2, ts2 := testServer(t, Config{CacheDir: dir})
	ingest(t, ts2, metisBytes(t, gen.Grid2D(20, 20)), "")
	st2 := buildWait(t, ts2, other)
	if st2.Cached {
		t.Error("renamed container accepted for the wrong parameters")
	}
	if got := s2.stats.hierLoadErrors.Load(); got != 1 {
		t.Errorf("load errors: %d, want 1", got)
	}
}
