package coarsen

import (
	"context"
	"fmt"
	"math"
	"time"

	"mlcg/internal/graph"
	"mlcg/internal/obs"
	"mlcg/internal/par"
)

// Coarsener drives the multilevel loop (Algorithm 1): repeatedly map fine
// vertices to coarse ones and construct the coarse graph until the vertex
// count drops below the cutoff.
type Coarsener struct {
	Mapper  Mapper
	Builder Builder

	// Cutoff is the coarse vertex count at which coarsening stops; the
	// paper uses 50. Zero means 50.
	Cutoff int

	// DiscardBelow implements the paper's guard: "if the vertex count
	// drops from greater than 50 to less than 10 in an iteration, we
	// discard the coarsest graph". Zero means 10; negative disables.
	DiscardBelow int

	// MaxLevels caps the hierarchy depth. The paper's runs cap at 201
	// levels (visible in Table IV where stalled HEM reports l = 201).
	// Zero means 201.
	MaxLevels int

	// Seed randomizes the per-level vertex orders; level i uses Seed+i.
	Seed uint64

	// Workers is the parallelism degree (0 = GOMAXPROCS).
	Workers int

	// Workspace optionally supplies the scratch arena for this run instead
	// of allocating a private one. A workspace is single-owner: Run
	// acquires it with a CAS and fails fast with a clear error if another
	// Run currently holds it. Servers recycle arenas across requests with
	// a WorkspacePool.
	Workspace *Workspace
}

// LevelStats records per-level measurements used by the Table II/III
// benchmarks.
type LevelStats struct {
	N, NC     int32
	M         int64
	MapTime   time.Duration
	BuildTime time.Duration
	Passes    int
	// PassMapped mirrors Mapping.PassMapped for this level.
	PassMapped []int64

	// Builder is the construction strategy that built this level's coarse
	// graph — the configured builder's name, or the dispatched builder
	// when the configured builder is a PolicyBuilder (then BuildReason
	// carries the decision-rule code that selected it).
	Builder     string
	BuildReason string

	// Span is the level's obs span (nil unless the run was traced). Its children are the map/build phase spans with per-kernel
	// wall/busy times; kept here so callers can drill into a level without
	// walking the whole trace tree.
	Span *obs.Span
}

// Counters returns the level's subtree-aggregated obs counter totals by
// stable name (cas_retries, hash_probes, ...). Nil when the level was run
// untraced.
func (s *LevelStats) Counters() map[string]int64 { return s.Span.Counters() }

// Hierarchy is the output of multilevel coarsening: Graphs[0] is the input
// graph and Graphs[i] the i-th coarse graph; Maps[i] maps the vertices of
// Graphs[i] onto Graphs[i+1].
type Hierarchy struct {
	Graphs []*graph.Graph
	Maps   [][]int32
	Stats  []LevelStats

	// Stalled reports that coarsening stopped because a mapping produced no
	// reduction (NC >= N), not because the cutoff was reached. HEC2-style
	// mappers hit this on mutual-matching graphs (Table IV's l = 201 rows
	// are the paper's version of the same pathology).
	Stalled bool
	// Dropped holds the measurements of a final attempt that ran but was
	// not kept: the stalled mapping when Stalled is set, otherwise a level
	// removed by the DiscardBelow rule. A run ends in at most one of the
	// two. It is kept separate from Stats so that Stats[i] still pairs
	// with Graphs[i+1]/Maps[i].
	Dropped *LevelStats
}

// Levels returns the number of coarsening levels (coarse graphs built).
func (h *Hierarchy) Levels() int { return len(h.Graphs) - 1 }

// Coarsest returns the last graph of the hierarchy.
func (h *Hierarchy) Coarsest() *graph.Graph { return h.Graphs[len(h.Graphs)-1] }

// MapTime returns the total time spent in the mapping phase, including a
// dropped final attempt: a stalled or discarded level still paid for its
// mapping pass, and the Table II/III timings must account for it.
func (h *Hierarchy) MapTime() time.Duration {
	var t time.Duration
	for _, s := range h.Stats {
		t += s.MapTime
	}
	if h.Dropped != nil {
		t += h.Dropped.MapTime
	}
	return t
}

// BuildTime returns the total time spent constructing coarse graphs
// (including the build of a discarded final level).
func (h *Hierarchy) BuildTime() time.Duration {
	var t time.Duration
	for _, s := range h.Stats {
		t += s.BuildTime
	}
	if h.Dropped != nil {
		t += h.Dropped.BuildTime
	}
	return t
}

// TotalTime returns MapTime + BuildTime, the paper's t_c.
func (h *Hierarchy) TotalTime() time.Duration { return h.MapTime() + h.BuildTime() }

// CoarseningRatio returns the paper's cr = (n_0/n_l)^(1/l), the geometric
// mean per-level reduction. (Table IV's caption writes (n_0/n_l)^{l-1};
// the values reported there are consistent with the l-th root, which is
// the standard definition used here.)
func (h *Hierarchy) CoarseningRatio() float64 {
	l := h.Levels()
	if l == 0 {
		return 1
	}
	n0 := float64(h.Graphs[0].NumV)
	nl := float64(h.Coarsest().NumV)
	if nl == 0 {
		return 1
	}
	return math.Pow(n0/nl, 1/float64(l))
}

// ProjectToFine carries a per-vertex assignment on the coarsest graph back
// to level 0 through the mapping arrays.
func (h *Hierarchy) ProjectToFine(coarsest []int32) []int32 {
	ex := par.Exec{Span: obs.Ambient()}
	for i := len(h.Maps) - 1; i >= 0; i-- {
		coarsest = Project(coarsest, h.Maps[i], ex)
	}
	return coarsest
}

// Flatten returns the direct fine-to-coarsest mapping of the whole
// hierarchy as a single Mapping (the matrix P of the full multilevel
// contraction): the identity projected through every level's map. For a
// hierarchy with no levels it is the identity.
func (h *Hierarchy) Flatten() *Mapping {
	ex := par.Exec{Span: obs.Ambient()}
	m := make([]int32, h.Graphs[0].N())
	for u := range m {
		m[u] = int32(u)
	}
	for _, next := range h.Maps {
		m = Project(next, m, ex)
	}
	return &Mapping{M: m, NC: h.Coarsest().NumV}
}

// Run coarsens g to completion and returns the hierarchy. The input graph
// is stored as level 0 and never modified.
func (c *Coarsener) Run(g *graph.Graph) (*Hierarchy, error) {
	return c.RunCtx(context.Background(), g)
}

// RunCtx is Run with a context: the multilevel loop checks for
// cancellation between levels (a deadline or a disconnected client stops
// the run at the next level boundary), and the run's level spans open
// under the span the context carries (obs.NewContext, obs.ContextWithSpan)
// or, without one, under obs.Ambient(), so per-request spans thread
// through runs executed on pool goroutines.
func (c *Coarsener) RunCtx(ctx context.Context, g *graph.Graph) (*Hierarchy, error) {
	if c.Mapper == nil || c.Builder == nil {
		return nil, fmt.Errorf("coarsen: Coarsener needs both a Mapper and a Builder")
	}
	span := obs.SpanFromContext(ctx)
	if span == nil {
		span = obs.Ambient()
	}
	cutoff := c.Cutoff
	if cutoff <= 0 {
		cutoff = 50
	}
	discard := c.DiscardBelow
	if discard == 0 {
		discard = 10
	}
	maxLevels := c.MaxLevels
	if maxLevels <= 0 {
		maxLevels = 201
	}

	h := &Hierarchy{Graphs: []*graph.Graph{g}}
	cur := g
	// The builder (and the mapper, if it supports it) share one scratch
	// workspace across all levels, so steady-state mapping and
	// construction allocate only the outputs that escape into the
	// hierarchy. A caller-supplied workspace is acquired exclusively:
	// scratch is single-owner, and two Runs sharing one arena would
	// silently corrupt each other's buffers.
	ws := c.Workspace
	if ws != nil {
		if err := ws.tryAcquire(); err != nil {
			return nil, err
		}
		defer ws.release()
	} else {
		ws = NewWorkspace()
	}
	wm, mapReuse := c.Mapper.(WorkspaceMapper)
	policy, adaptive := c.Builder.(PolicyBuilder)
	for cur.N() > cutoff && h.Levels() < maxLevels {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("coarsen: canceled before level %d: %w", h.Levels()+1, err)
		}
		// Span names are only built when the run is traced, so the
		// untraced path stays allocation-free.
		var lvl, phase *obs.Span
		if span != nil {
			lvl = span.Child(fmt.Sprintf("level %d", h.Levels()))
			phase = lvl.Child("map:" + c.Mapper.Name())
		}
		ex := par.Exec{P: c.Workers, Span: phase}
		t0 := time.Now()
		var m *Mapping
		var err error
		if mapReuse {
			m, err = wm.MapWith(ws, cur, c.Seed+uint64(h.Levels()), ex)
		} else {
			m, err = c.Mapper.Map(cur, c.Seed+uint64(h.Levels()), ex)
		}
		t1 := time.Now()
		phase.End()
		if err != nil {
			lvl.End()
			return nil, fmt.Errorf("coarsen: level %d mapping: %w", h.Levels()+1, err)
		}
		if m.NC >= cur.NumV {
			// Stall: no reduction at all. Stop with what we have, but
			// record the failed attempt so callers can tell "reached the
			// cutoff" from "gave up".
			lvl.End()
			h.Stalled = true
			h.Dropped = &LevelStats{
				N: cur.NumV, NC: m.NC, M: cur.M(),
				MapTime: t1.Sub(t0),
				Passes:  m.Passes, PassMapped: m.PassMapped,
				Span: lvl,
			}
			break
		}
		if lvl != nil {
			phase = lvl.Child("build:" + c.Builder.Name())
		}
		next, err := c.Builder.BuildWith(ws, cur, m, par.Exec{P: c.Workers, Span: phase})
		t2 := time.Now()
		phase.End()
		lvl.End()
		if err != nil {
			return nil, fmt.Errorf("coarsen: level %d construction: %w", h.Levels()+1, err)
		}
		bname, breason := c.Builder.Name(), ""
		if adaptive {
			if ch := policy.LastChoice(); ch != nil {
				bname, breason = ch.Builder, ch.Reason
			}
		}
		st := LevelStats{
			N: cur.NumV, NC: m.NC, M: cur.M(),
			MapTime: t1.Sub(t0), BuildTime: t2.Sub(t1),
			Passes: m.Passes, PassMapped: m.PassMapped,
			Builder: bname, BuildReason: breason,
			Span: lvl,
		}
		if discard > 0 && cur.N() > cutoff && next.N() < discard {
			// Over-aggressive final step: discard the coarsest graph but
			// keep the attempt's measurements, like a stall's.
			h.Dropped = &st
			break
		}
		h.Stats = append(h.Stats, st)
		h.Graphs = append(h.Graphs, next)
		h.Maps = append(h.Maps, m.M)
		cur = next
	}
	return h, nil
}
