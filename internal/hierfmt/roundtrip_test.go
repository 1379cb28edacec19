package hierfmt

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"mlcg/internal/coarsen"
	"mlcg/internal/gen"
	"mlcg/internal/graph"
)

// buildHier coarsens one generator instance with the given worker count.
func buildHier(t testing.TB, g *graph.Graph, workers int) *coarsen.Hierarchy {
	t.Helper()
	c := &coarsen.Coarsener{Mapper: coarsen.HEC{}, Builder: &coarsen.AutoConstruct{}, Seed: 11, Workers: workers}
	h, err := c.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func saveBytes(t testing.TB, h *coarsen.Hierarchy, opt SaveOptions) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Save(&buf, h, opt); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// hierEqual compares everything the container claims to round-trip.
func hierEqual(t *testing.T, want, got *coarsen.Hierarchy) {
	t.Helper()
	if len(got.Graphs) != len(want.Graphs) || len(got.Maps) != len(want.Maps) {
		t.Fatalf("shape: %d/%d graphs, %d/%d maps",
			len(got.Graphs), len(want.Graphs), len(got.Maps), len(want.Maps))
	}
	for i := range want.Graphs {
		if !graph.Equal(want.Graphs[i], got.Graphs[i]) {
			t.Errorf("level %d graph differs", i)
		}
	}
	for i := range want.Maps {
		for u := range want.Maps[i] {
			if want.Maps[i][u] != got.Maps[i][u] {
				t.Fatalf("map %d differs at vertex %d", i, u)
			}
		}
	}
	if got.Stalled != want.Stalled {
		t.Errorf("Stalled: got %v, want %v", got.Stalled, want.Stalled)
	}
	if len(got.Stats) != len(want.Stats) {
		t.Fatalf("stats: %d records, want %d", len(got.Stats), len(want.Stats))
	}
	for i := range want.Stats {
		w, g := want.Stats[i], got.Stats[i]
		if g.N != w.N || g.NC != w.NC || g.M != w.M ||
			g.MapTime != w.MapTime || g.BuildTime != w.BuildTime ||
			g.Passes != w.Passes || g.Builder != w.Builder || g.BuildReason != w.BuildReason {
			t.Errorf("stats %d: got %+v, want %+v", i, g, w)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		opt  SaveOptions
	}{
		{"grid-raw", gen.Grid2D(40, 40), SaveOptions{}},
		{"grid-varint", gen.Grid2D(40, 40), SaveOptions{CompressAdj: true}},
		{"rmat-raw", gen.RMAT(10, 8, 3), SaveOptions{}},
		{"rmat-varint-meta", gen.RMAT(10, 8, 3), SaveOptions{CompressAdj: true, Meta: []byte(`{"who":"test"}`)}},
		{"ba", gen.BA(500, 3, 5), SaveOptions{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := buildHier(t, tc.g, 2)
			data := saveBytes(t, h, tc.opt)
			got, meta, err := Load(data, LoadOptions{FullValidate: true})
			if err != nil {
				t.Fatal(err)
			}
			hierEqual(t, h, got)
			if !bytes.Equal(meta, tc.opt.Meta) {
				t.Errorf("meta: got %q, want %q", meta, tc.opt.Meta)
			}
			// Save→load→save is byte-identical: the container is canonical.
			again := saveBytes(t, got, SaveOptions{CompressAdj: tc.opt.CompressAdj, Meta: meta})
			if !bytes.Equal(data, again) {
				t.Fatalf("save→load→save not byte-identical (%d vs %d bytes)", len(data), len(again))
			}
		})
	}
}

// TestRoundTripAcrossWorkers pins the byte-identity golden property: the
// coarsening pipeline guarantees identical hierarchies at every worker
// count, and Save is deterministic, so the container bytes must match too.
func TestRoundTripAcrossWorkers(t *testing.T) {
	for _, g := range []*graph.Graph{gen.Grid2D(30, 30), gen.RMAT(9, 8, 3)} {
		var want []byte
		for _, workers := range []int{1, 2, 4, 8} {
			// A fixed builder: the adaptive policy may legitimately pick
			// different (output-identical) builders per worker count, which
			// would change the LVSB provenance strings.
			c := &coarsen.Coarsener{Mapper: coarsen.HEC{}, Builder: coarsen.BuildSort{}, Seed: 11, Workers: workers}
			h, err := c.Run(g)
			if err != nil {
				t.Fatal(err)
			}
			// Wall-clock timings are the one run-dependent field; zero them
			// so the comparison pins the structural bytes.
			for i := range h.Stats {
				h.Stats[i].MapTime, h.Stats[i].BuildTime = 0, 0
			}
			data := saveBytes(t, h, SaveOptions{CompressAdj: true})
			if want == nil {
				want = data
			} else if !bytes.Equal(want, data) {
				t.Fatalf("workers=%d produced different container bytes", workers)
			}
		}
	}
}

func TestGraphOnlyContainer(t *testing.T) {
	g := gen.TriMesh(20, 20, 3)
	var buf bytes.Buffer
	if err := SaveGraph(&buf, g, SaveOptions{}); err != nil {
		t.Fatal(err)
	}
	got, _, err := LoadGraph(buf.Bytes(), LoadOptions{FullValidate: true})
	if err != nil {
		t.Fatal(err)
	}
	if !graph.Equal(g, got) {
		t.Error("graph container round trip differs")
	}
	// A multi-level container must be refused by the graph loader.
	h := buildHier(t, g, 1)
	if _, _, err := LoadGraph(saveBytes(t, h, SaveOptions{}), LoadOptions{}); err == nil {
		t.Error("LoadGraph accepted a multi-level hierarchy")
	}
}

func TestStalledFlagRoundTrip(t *testing.T) {
	h := buildHier(t, gen.Grid2D(20, 20), 1)
	h.Stalled = true
	h.Dropped = &coarsen.LevelStats{N: 5, NC: 5} // documented as not persisted
	got, _, err := Load(saveBytes(t, h, SaveOptions{}), LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Stalled {
		t.Error("Stalled flag lost")
	}
	if got.Dropped != nil {
		t.Error("Dropped unexpectedly persisted")
	}
}

func TestSaveFileLoadFileOpen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "h.mlcg")
	h := buildHier(t, gen.RMAT(9, 8, 7), 4)
	if err := SaveFile(path, h, SaveOptions{Meta: []byte("m")}); err != nil {
		t.Fatal(err)
	}
	// No temp droppings after a successful save.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("dir has %d entries after SaveFile, want 1", len(ents))
	}

	got, meta, err := LoadFile(path, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	hierEqual(t, h, got)
	if string(meta) != "m" {
		t.Errorf("meta %q", meta)
	}
}

func TestVarintAdjacency(t *testing.T) {
	// Unsorted rows (negative deltas) must round-trip too: zigzag keeps
	// the encoding total.
	xadj := []int64{0, 3, 5}
	adj := []int32{4, 1, 3, 0, 2}
	enc := encodeAdjVarint(xadj, adj)
	dec, err := decodeAdjVarint(enc, xadj, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range adj {
		if dec[i] != adj[i] {
			t.Fatalf("element %d: got %d, want %d", i, dec[i], adj[i])
		}
	}
	// Compression on a real sorted-adjacency graph beats raw int32.
	g := gen.Grid2D(50, 50)
	h := &coarsen.Hierarchy{Graphs: []*graph.Graph{g}}
	raw := saveBytes(t, h, SaveOptions{})
	comp := saveBytes(t, h, SaveOptions{CompressAdj: true})
	if len(comp) >= len(raw) {
		t.Errorf("varint container (%d B) not smaller than raw (%d B)", len(comp), len(raw))
	}
}
