package coarsen

import (
	"testing"
	"time"

	"mlcg/internal/graph"
	"mlcg/internal/obs"
	"mlcg/internal/par"
)

// bigTestGraph builds a connected random graph large enough for several
// coarsening levels.
func bigTestGraph(n int, seed uint64) *graph.Graph {
	rng := par.NewRNG(seed)
	var e []graph.Edge
	for i := 0; i < n-1; i++ {
		e = append(e, graph.Edge{U: int32(i), V: int32(i + 1), W: int64(rng.Intn(5) + 1)})
	}
	for i := 0; i < 3*n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			e = append(e, graph.Edge{U: int32(u), V: int32(v), W: int64(rng.Intn(5) + 1)})
		}
	}
	return graph.MustFromEdges(n, e)
}

func TestCoarsenerRunsToCutoff(t *testing.T) {
	g := bigTestGraph(5000, 3)
	// Discard disabled so the cutoff itself is observable; the discard
	// rule has its own test.
	c := &Coarsener{Mapper: HEC{}, Builder: BuildSort{}, Seed: 7, Workers: 4, DiscardBelow: -1}
	h, err := c.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if h.Levels() < 2 {
		t.Fatalf("only %d levels", h.Levels())
	}
	if h.Coarsest().N() > 50 {
		t.Errorf("coarsest has %d vertices, cutoff is 50", h.Coarsest().N())
	}
	// Sizes strictly decrease.
	for i := 1; i < len(h.Graphs); i++ {
		if h.Graphs[i].NumV >= h.Graphs[i-1].NumV {
			t.Errorf("level %d did not shrink: %d -> %d", i, h.Graphs[i-1].NumV, h.Graphs[i].NumV)
		}
	}
	// Vertex weight is conserved down the whole hierarchy.
	want := int64(g.N())
	for i, cg := range h.Graphs {
		if cg.TotalVertexWeight() != want {
			t.Errorf("level %d: total vertex weight %d, want %d", i, cg.TotalVertexWeight(), want)
		}
	}
	// Every coarse graph is structurally valid and connected (coarsening
	// preserves connectivity).
	for i, cg := range h.Graphs[1:] {
		if err := cg.Validate(); err != nil {
			t.Errorf("level %d: %v", i+1, err)
		}
		if !cg.IsConnected() {
			t.Errorf("level %d: disconnected coarse graph", i+1)
		}
	}
	if h.CoarseningRatio() <= 1 {
		t.Errorf("coarsening ratio %v", h.CoarseningRatio())
	}
	if h.TotalTime() <= 0 || len(h.Stats) != h.Levels() {
		t.Errorf("stats missing: total=%v levels=%d stats=%d", h.TotalTime(), h.Levels(), len(h.Stats))
	}
}

func TestCoarsenerAllMappersAndBuilders(t *testing.T) {
	g := bigTestGraph(1200, 9)
	for _, mname := range MapperNames() {
		mapper, _ := MapperByName(mname)
		c := &Coarsener{Mapper: mapper, Builder: BuildSort{}, Seed: 1, Workers: 2, MaxLevels: 60}
		h, err := c.Run(g)
		if err != nil {
			t.Fatalf("%s: %v", mname, err)
		}
		if h.Levels() == 0 {
			t.Errorf("%s: no coarsening happened", mname)
		}
		for i, cg := range h.Graphs[1:] {
			if err := cg.Validate(); err != nil {
				t.Fatalf("%s level %d: %v", mname, i+1, err)
			}
		}
	}
	for _, bname := range BuilderNames() {
		builder, _ := BuilderByName(bname)
		c := &Coarsener{Mapper: HEC{}, Builder: builder, Seed: 2, Workers: 2}
		h, err := c.Run(g)
		if err != nil {
			t.Fatalf("%s: %v", bname, err)
		}
		if h.Coarsest().N() > 50 {
			t.Errorf("%s: stopped at %d vertices", bname, h.Coarsest().N())
		}
	}
}

func TestCoarsenerMatchingNeedsMoreLevels(t *testing.T) {
	// Matching-based coarsening (ratio <= 2) must need at least as many
	// levels as HEC (Table IV shape).
	g := bigTestGraph(4000, 11)
	run := func(m Mapper) int {
		c := &Coarsener{Mapper: m, Builder: BuildSort{}, Seed: 5, Workers: 2}
		h, err := c.Run(g)
		if err != nil {
			t.Fatal(err)
		}
		return h.Levels()
	}
	lHEC := run(HEC{})
	lHEM := run(HEM{})
	if lHEM < lHEC {
		t.Errorf("HEM levels %d < HEC levels %d — matching cannot out-coarsen HEC", lHEM, lHEC)
	}
}

func TestProjectToFine(t *testing.T) {
	g := bigTestGraph(800, 13)
	c := &Coarsener{Mapper: HEC{}, Builder: BuildSort{}, Seed: 3, Workers: 2}
	h, err := c.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	// Assign each coarsest vertex its own label; the projection must equal
	// the composition of the mapping arrays.
	nc := h.Coarsest().N()
	labels := make([]int32, nc)
	for i := range labels {
		labels[i] = int32(i)
	}
	fine := h.ProjectToFine(labels)
	if len(fine) != g.N() {
		t.Fatalf("projection covers %d vertices, want %d", len(fine), g.N())
	}
	for u := 0; u < g.N(); u++ {
		want := int32(u)
		for _, m := range h.Maps {
			want = m[want]
		}
		if fine[u] != want {
			t.Fatalf("projection wrong at %d: %d != %d", u, fine[u], want)
		}
	}
}

func TestCoarsenerDiscardRule(t *testing.T) {
	// A star coarsens to 1 vertex in one HEC step; with the default rules
	// (cutoff 50, discard 10) the driver must discard that degenerate
	// level and keep the star itself.
	var e []graph.Edge
	for i := 1; i < 200; i++ {
		e = append(e, graph.Edge{U: 0, V: int32(i), W: 1})
	}
	g := graph.MustFromEdges(200, e)
	c := &Coarsener{Mapper: HEC{}, Builder: BuildSort{}, Seed: 1, Workers: 2}
	h, err := c.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if h.Coarsest().N() < 10 && h.Coarsest() != g {
		t.Errorf("degenerate coarsest graph (%d vertices) not discarded", h.Coarsest().N())
	}
	// With the discard rule disabled the degenerate level is kept.
	c2 := &Coarsener{Mapper: HEC{}, Builder: BuildSort{}, Seed: 1, Workers: 2, DiscardBelow: -1}
	h2, err := c2.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if h2.Coarsest().N() >= 10 {
		t.Errorf("discard disabled but coarsest has %d vertices", h2.Coarsest().N())
	}
}

func TestCoarsenerMaxLevels(t *testing.T) {
	g := bigTestGraph(3000, 17)
	c := &Coarsener{Mapper: HEM{}, Builder: BuildSort{}, Seed: 1, Workers: 2, MaxLevels: 2}
	h, err := c.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if h.Levels() != 2 {
		t.Errorf("levels = %d, want exactly 2 (cap)", h.Levels())
	}
}

func TestCoarsenerHEC2StallStops(t *testing.T) {
	// Two vertices, one edge: HEC2 maps both to themselves (mutual pair,
	// no 2-cycle collapse) and must not loop forever.
	g := graph.MustFromEdges(2, []graph.Edge{{U: 0, V: 1, W: 1}})
	c := &Coarsener{Mapper: HEC2{}, Builder: BuildSort{}, Seed: 1, Workers: 1, Cutoff: 1}
	h, err := c.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if h.Levels() != 0 {
		t.Errorf("stalled mapper should produce zero levels, got %d", h.Levels())
	}
}

func TestCoarsenerStallIsRecorded(t *testing.T) {
	// The stall break used to be silent; a stalled run must now be
	// distinguishable from one that reached the cutoff, with the failed
	// attempt's measurements preserved.
	g := graph.MustFromEdges(2, []graph.Edge{{U: 0, V: 1, W: 1}})
	c := &Coarsener{Mapper: HEC2{}, Builder: BuildSort{}, Seed: 1, Workers: 1, Cutoff: 1}
	h, err := c.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if !h.Stalled {
		t.Fatal("stalled run not flagged")
	}
	st := h.Dropped
	if st == nil {
		t.Fatal("stalled run has no Dropped record")
	}
	if st.N != 2 || st.NC < st.N {
		t.Errorf("stall stats n=%d nc=%d, want n=2 and nc >= n", st.N, st.NC)
	}
	// Stats must still pair with the built levels only.
	if len(h.Stats) != h.Levels() {
		t.Errorf("Stats length %d != levels %d", len(h.Stats), h.Levels())
	}

	// A run that reaches the cutoff is not stalled.
	g2 := bigTestGraph(500, 5)
	c2 := &Coarsener{Mapper: HEC{}, Builder: BuildSort{}, Seed: 1, Workers: 2}
	h2, err := c2.Run(g2)
	if err != nil {
		t.Fatal(err)
	}
	if h2.Stalled || h2.Dropped != nil {
		t.Error("cutoff run wrongly flagged as stalled")
	}
}

func TestTotalTimeIncludesStallTime(t *testing.T) {
	// Regression: TotalTime() used to sum Stats only, so a stalled
	// attempt's map/build time vanished from the Table II/III totals.
	h := &Hierarchy{
		Stats: []LevelStats{
			{MapTime: 10 * time.Millisecond, BuildTime: 5 * time.Millisecond},
			{MapTime: 4 * time.Millisecond, BuildTime: 1 * time.Millisecond},
		},
		Stalled: true,
		Dropped: &LevelStats{MapTime: 7 * time.Millisecond, BuildTime: 3 * time.Millisecond},
	}
	if got, want := h.MapTime(), 21*time.Millisecond; got != want {
		t.Errorf("MapTime = %v, want %v", got, want)
	}
	if got, want := h.BuildTime(), 9*time.Millisecond; got != want {
		t.Errorf("BuildTime = %v, want %v", got, want)
	}
	if got, want := h.TotalTime(), 30*time.Millisecond; got != want {
		t.Errorf("TotalTime = %v, want %v", got, want)
	}

	// An end-to-end stalled run must report a positive total even with
	// zero built levels.
	g := graph.MustFromEdges(2, []graph.Edge{{U: 0, V: 1, W: 1}})
	c := &Coarsener{Mapper: HEC2{}, Builder: BuildSort{}, Seed: 1, Workers: 1, Cutoff: 1}
	hr, err := c.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if !hr.Stalled || hr.TotalTime() <= 0 {
		t.Errorf("stalled run: Stalled=%v TotalTime=%v, want stalled with positive total", hr.Stalled, hr.TotalTime())
	}
}

func TestDiscardedLevelIsRecorded(t *testing.T) {
	// HEC collapses a 101-vertex star to one vertex in a single level;
	// the discard rule drops that level, but its map and build ran, so
	// the attempt is recorded and counted in the hierarchy's times.
	edges := make([]graph.Edge, 100)
	for i := range edges {
		edges[i] = graph.Edge{U: 0, V: int32(i + 1), W: 1}
	}
	g := graph.MustFromEdges(101, edges)
	h, err := (&Coarsener{Mapper: HEC{}, Builder: BuildSort{}, Seed: 1, Workers: 1}).Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if h.Levels() != 0 || h.Stalled {
		t.Fatalf("levels=%d stalled=%v, want 0 levels and no stall", h.Levels(), h.Stalled)
	}
	st := h.Dropped
	if st == nil {
		t.Fatal("discarded level has no Dropped record")
	}
	if st.N != 101 || st.NC != 1 {
		t.Errorf("dropped n=%d nc=%d, want 101 and 1", st.N, st.NC)
	}
	if h.MapTime() <= 0 || h.TotalTime() < h.MapTime() {
		t.Errorf("MapTime=%v TotalTime=%v, want the discarded attempt counted", h.MapTime(), h.TotalTime())
	}
}

func TestRunRecordsLevelSpans(t *testing.T) {
	tr := obs.StartTrace("test")
	if tr == nil {
		t.Fatal("could not start trace")
	}
	defer tr.Stop()
	g := bigTestGraph(2000, 11)
	c := &Coarsener{Mapper: HEC{}, Builder: BuildHash{}, Seed: 3, Workers: 2}
	h, err := c.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if h.Levels() == 0 {
		t.Fatal("no levels built")
	}
	for i, st := range h.Stats {
		if st.Span == nil {
			t.Fatalf("level %d: no span recorded", i)
		}
		kids := st.Span.Children()
		if len(kids) < 2 {
			t.Fatalf("level %d: %d phase spans, want map+build", i, len(kids))
		}
		if got := kids[0].Name(); got != "map:hec" {
			t.Errorf("level %d: first phase %q, want map:hec", i, got)
		}
		if got := kids[1].Name(); got != "build:hash" {
			t.Errorf("level %d: second phase %q, want build:hash", i, got)
		}
		ctr := st.Counters()
		if ctr == nil {
			t.Fatalf("level %d: no counters", i)
		}
		if ctr["reservations"] == 0 {
			t.Errorf("level %d: no HEC reservations counted (got %v)", i, ctr)
		}
		if ctr["hash_probes"] == 0 {
			t.Errorf("level %d: no hash probes counted (got %v)", i, ctr)
		}
	}
	// Without a trace, the view methods must be nil-safe no-ops.
	tr.Stop()
	h2, err := c.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if h2.Stats[0].Span != nil || h2.Stats[0].Counters() != nil {
		t.Error("untraced run recorded spans")
	}
}

func TestCoarsenerWeightedInput(t *testing.T) {
	// Starting from an already-weighted graph (as if resuming mid-
	// hierarchy): weights and vertex weights must flow through intact.
	g := bigTestGraph(600, 21)
	g.MaterializeVWgt()
	rng := par.NewRNG(3)
	var totalVW int64
	for i := range g.VWgt {
		g.VWgt[i] = int64(rng.Intn(5) + 1)
		totalVW += g.VWgt[i]
	}
	c := &Coarsener{Mapper: HEC{}, Builder: BuildSort{}, Seed: 2, Workers: 2}
	h, err := c.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	for i, cg := range h.Graphs {
		if cg.TotalVertexWeight() != totalVW {
			t.Errorf("level %d: vertex weight %d, want %d", i, cg.TotalVertexWeight(), totalVW)
		}
	}
}

func TestCoarsenerNeedsMapperAndBuilder(t *testing.T) {
	g := graph.MustFromEdges(2, []graph.Edge{{U: 0, V: 1, W: 1}})
	if _, err := (&Coarsener{Mapper: HEC{}}).Run(g); err == nil {
		t.Error("missing builder accepted")
	}
	if _, err := (&Coarsener{Builder: BuildSort{}}).Run(g); err == nil {
		t.Error("missing mapper accepted")
	}
}

func TestClassifyHeavyEdges(t *testing.T) {
	g := bigTestGraph(500, 19)
	cls := ClassifyHeavyEdges(g, 23)
	if len(cls.Class) != g.N() || len(cls.Heavy) != g.N() {
		t.Fatal("classification arrays wrong length")
	}
	total := cls.Counts[CreateEdge] + cls.Counts[InheritEdge] + cls.Counts[SkipEdge]
	if total != int64(g.N()) {
		t.Errorf("class counts sum to %d, want %d", total, g.N())
	}
	// Every create edge allocates exactly one coarse vertex.
	if cls.Counts[CreateEdge] != int64(cls.NC) {
		t.Errorf("create edges %d != coarse vertices %d", cls.Counts[CreateEdge], cls.NC)
	}
	// The replay is a legitimate HEC execution: its nc is within the range
	// other HEC runs produce (loose sanity bound: at most n/2 + isolated).
	if cls.NC <= 0 || cls.NC > g.NumV/2+1 {
		t.Errorf("replay produced nc=%d on n=%d", cls.NC, g.NumV)
	}
	// Heavy array is a pseudoforest: out-degree one, H[u] is a neighbor.
	for u := int32(0); u < g.NumV; u++ {
		h := cls.Heavy[u]
		if h != u && !g.HasEdge(u, h) {
			t.Errorf("H[%d] = %d is not a neighbor", u, h)
		}
	}
	for _, c := range []EdgeClass{CreateEdge, InheritEdge, SkipEdge} {
		if c.String() == "unknown" {
			t.Errorf("class %d has no name", c)
		}
	}
	if EdgeClass(9).String() != "unknown" {
		t.Error("invalid class should stringify as unknown")
	}
}

func TestClassifyPaperExampleShape(t *testing.T) {
	// On any graph, create edges come in at most pairs-of-endpoints:
	// create+inherit = number of aggregates' member additions; skip edges
	// are vertices whose heavy edge was redundant. A star must classify
	// hub-or-first-leaf as create and the rest inherit/skip.
	var e []graph.Edge
	for i := 1; i < 10; i++ {
		e = append(e, graph.Edge{U: 0, V: int32(i), W: 1})
	}
	g := graph.MustFromEdges(10, e)
	cls := ClassifyHeavyEdges(g, 3)
	if cls.Counts[CreateEdge] != 1 {
		t.Errorf("star should have exactly 1 create edge, got %d", cls.Counts[CreateEdge])
	}
	if cls.Counts[InheritEdge]+cls.Counts[SkipEdge] != 9 {
		t.Errorf("star leaves should inherit or skip: %v", cls.Counts)
	}
}
