package coarsen

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"mlcg/internal/graph"
	"mlcg/internal/obs"
	"mlcg/internal/par"
)

// threeLevelHierarchy pairs up the vertices of an 8-vertex path three
// times: 8 → 4 → 2 → 1.
func threeLevelHierarchy(t *testing.T) *Hierarchy {
	t.Helper()
	var e []graph.Edge
	for u := int32(0); u < 7; u++ {
		e = append(e, graph.Edge{U: u, V: u + 1, W: 1})
	}
	h := &Hierarchy{Graphs: []*graph.Graph{graph.MustFromEdges(8, e)}}
	for h.Coarsest().N() > 1 {
		g := h.Coarsest()
		m := &Mapping{M: make([]int32, g.N()), NC: g.NumV / 2}
		for u := range m.M {
			m.M[u] = int32(u / 2)
		}
		cg, err := BuildSort{}.Build(g, m, par.Exec{P: 1})
		if err != nil {
			t.Fatal(err)
		}
		h.Graphs = append(h.Graphs, cg)
		h.Maps = append(h.Maps, m.M)
	}
	return h
}

// walkRecord walks h from level from under span, checks that every step
// gets its level's graph and a state of that graph's size, and records
// the level and the span of every step.
func walkRecord(t *testing.T, h *Hierarchy, from int, span *obs.Span) ([]int32, []string) {
	t.Helper()
	var steps []string
	coarse := make([]int32, h.Graphs[from].N())
	for a := range coarse {
		coarse[a] = int32(10 * a)
	}
	out, err := Uncoarsen(h, from, coarse, "x", par.Exec{P: 2, Span: span},
		func(i int, g *graph.Graph, s []int32, ex par.Exec) ([]int32, error) {
			if len(s) != g.N() || g != h.Graphs[i] {
				t.Errorf("level %d: state of %d entries on a graph of %d vertices", i, len(s), g.N())
			}
			steps = append(steps, fmt.Sprintf("%d under %q", i, ex.Span.Name()))
			return s, nil
		}, Project[int32])
	if err != nil {
		t.Fatal(err)
	}
	return out, steps
}

// TestUncoarsenSpans: a traced walk opens "x:level 3" … "x:level 0" in
// that order, runs each step under its level's span, and gives every level
// but 0 exactly one "x:project" child; a walk over zero levels opens none.
func TestUncoarsenSpans(t *testing.T) {
	h := threeLevelHierarchy(t)
	tr := obs.NewTrace("walk")
	out, steps := walkRecord(t, h, h.Levels(), tr.Root)
	if tr.Root.Wall() != 0 {
		t.Error("the walk closed its caller's span")
	}
	tr.Stop()

	if want := h.ProjectToFine([]int32{0}); !slices.Equal(out, want) {
		t.Errorf("walk left %v, ProjectToFine gives %v", out, want)
	}
	wantSteps := []string{`3 under "x:level 3"`, `2 under "x:level 2"`, `1 under "x:level 1"`, `0 under "x:level 0"`}
	if !slices.Equal(steps, wantSteps) {
		t.Errorf("steps %q, want %q", steps, wantSteps)
	}
	levels := tr.Root.Children()
	if len(levels) != 4 {
		t.Fatalf("%d spans under the root, want 4 level spans", len(levels))
	}
	for k, lvl := range levels {
		i := 3 - k
		if want := fmt.Sprintf("x:level %d", i); lvl.Name() != want {
			t.Errorf("span %d is %q, want %q", k, lvl.Name(), want)
		}
		var projects int
		for _, c := range lvl.Children() {
			if c.Name() == "x:project" {
				projects++
			}
		}
		if want := min(i, 1); projects != want || len(lvl.Children()) != want {
			t.Errorf("level %d has %d children, %d of them x:project; want %d x:project only",
				i, len(lvl.Children()), projects, want)
		}
	}

	// A walk from a seed level opens only the levels it walks.
	tr = obs.NewTrace("seeded")
	out, steps = walkRecord(t, h, 1, tr.Root)
	tr.Stop()
	if want := []int32{0, 0, 10, 10, 20, 20, 30, 30}; !slices.Equal(out, want) {
		t.Errorf("walk from level 1 left %v, want %v", out, want)
	}
	if want := []string{`1 under "x:level 1"`, `0 under "x:level 0"`}; !slices.Equal(steps, want) {
		t.Errorf("steps %q, want %q", steps, want)
	}

	// Zero levels: the step runs once on level 0 under the caller's span.
	tr = obs.NewTrace("flat")
	flat := &Hierarchy{Graphs: h.Graphs[:1]}
	out, steps = walkRecord(t, flat, 0, tr.Root)
	if tr.Root.Wall() != 0 {
		t.Error("the zero-level walk closed its caller's span")
	}
	tr.Stop()
	if want := []string{`0 under "flat"`}; !slices.Equal(steps, want) {
		t.Errorf("steps %q, want %q", steps, want)
	}
	if len(out) != 8 {
		t.Errorf("zero-level walk left %d entries", len(out))
	}
	if kids := tr.Root.Children(); len(kids) != 0 {
		t.Errorf("zero-level walk opened %d spans", len(kids))
	}
}

// TestUncoarsenStopsAtFirstError: the first failing step ends the walk,
// its error comes back, and every span it opened is closed.
func TestUncoarsenStopsAtFirstError(t *testing.T) {
	h := threeLevelHierarchy(t)
	tr := obs.NewTrace("walk")
	boom := errors.New("boom")
	var ran []int
	_, err := Uncoarsen(h, h.Levels(), 0, "x", par.Exec{Span: tr.Root},
		func(i int, _ *graph.Graph, s int, _ par.Exec) (int, error) {
			ran = append(ran, i)
			if i == 1 {
				return s, boom
			}
			return s, nil
		},
		func(s int, _ []int32, _ par.Exec) int { return s })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the step's error", err)
	}
	if want := []int{3, 2, 1}; !slices.Equal(ran, want) {
		t.Errorf("steps ran on levels %v, want %v", ran, want)
	}
	var open func(s *obs.Span) bool
	open = func(s *obs.Span) bool {
		for _, c := range s.Children() {
			if c.Wall() == 0 || open(c) {
				return true
			}
		}
		return false
	}
	if open(tr.Root) {
		t.Error("a span of the failed walk was left open")
	}
}

// TestUncoarsenUntracedZeroAlloc: an untraced walk formats no span name,
// so a step and projection that allocate nothing keep it allocation-free.
func TestUncoarsenUntracedZeroAlloc(t *testing.T) {
	h := threeLevelHierarchy(t)
	allocs := testing.AllocsPerRun(100, func() {
		_, _ = Uncoarsen(h, h.Levels(), 0, "x", par.Exec{P: 1},
			func(i int, _ *graph.Graph, s int, _ par.Exec) (int, error) { return s + i, nil },
			func(s int, m []int32, _ par.Exec) int { return s + len(m) })
	})
	if allocs != 0 {
		t.Errorf("untraced walk allocates %.1f times per run, want 0", allocs)
	}
}
