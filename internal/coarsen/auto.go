package coarsen

import (
	"fmt"

	"mlcg/internal/graph"
	"mlcg/internal/obs"
	"mlcg/internal/par"
)

// Thresholds of the adaptive construction policy. Calibrated against the
// per-level builder shootout recorded in BENCH_baseline.json on the
// reference host (see DESIGN.md, "Adaptive construction"); the numbers are
// deliberately coarse — the regimes they separate differ by integer
// factors, not percents.
const (
	// autoTinyEdges is the edge count below which the hash builder's small
	// constant factor beats every sort-based strategy regardless of worker
	// count (measured: hash wins or ties every calibrated level with
	// m <= 1024; all such levels finish in well under 50µs).
	autoTinyEdges = 1024

	// autoCliqueDensity is the estimated coarse density 2m/nc² above which
	// the level is collapsing toward a clique with edge duplication so
	// extreme that the SpGEMM dense accumulator stays flat while every
	// sort-based strategy pays for each duplicate. The densest calibrated
	// level (the mycielskian17 analog's final level, density 571) had
	// spgemm beating per-bin sort but still losing to the global radix
	// sort, so the threshold sits above everything measured and the
	// branch covers only the asymptotic clique-collapse regime.
	// Values far above 1 are possible because the estimate counts fine
	// edges before deduplication.
	autoCliqueDensity = 1000.0

	// autoDenseFoldDensity marks the dense-fold regime: estimated coarse
	// density 2m/nc² >= 0.5 means most scattered entries will merge into
	// already-present coarse edges. Hash dedup is the robust winner there —
	// the per-bin tables stay small and cache-resident precisely because
	// the fold ratio is high, while any global sort drags every duplicate
	// through all of its radix passes (calibrated on the mycielskian17
	// analog: hash beats the global sort by 1.3-1.4x on its HEM levels,
	// density 0.65-2.2, and is within measurement noise of the field on
	// its density-571 HEC level).
	autoDenseFoldDensity = 0.5
)

// Choice records one per-level decision of the AutoConstruct policy:
// Builder is the name of the dispatched builder and Reason the stable
// decision-rule code that selected it (trivial-level, tiny-level,
// near-clique, dense-fold, serial-default, parallel-default).
type Choice struct {
	Builder string
	Reason  string
}

// AutoConstruct is the adaptive per-level construction policy: each Build
// computes cheap statistics of the (fine graph, mapping) pair and
// dispatches to the builder the calibrated decision rule predicts to be
// fastest for that level. The rule (decideConstruct) is a pure function of
// the statistics and the worker count, so the policy inherits the
// schedule-independence guarantee of the underlying builders: branches
// that depend on the worker count only ever switch between builders that
// emit byte-identical canonical CSR (globalsort and sort), while the
// branches selecting hash or spgemm — whose adjacency order differs — are
// worker-count-independent.
type AutoConstruct struct {
	last *Choice
}

// Name implements Builder.
func (b *AutoConstruct) Name() string { return "auto" }

// LastChoice returns the decision of the most recent Build (nil before the
// first).
func (b *AutoConstruct) LastChoice() *Choice { return b.last }

// Build implements Builder with a private workspace.
func (b *AutoConstruct) Build(g *graph.Graph, m *Mapping, ex par.Exec) (*graph.Graph, error) {
	return b.BuildWith(NewWorkspace(), g, m, ex)
}

// BuildWith implements Builder: it decides, records the choice, and
// forwards the shared workspace to the chosen builder.
func (b *AutoConstruct) BuildWith(ws *Workspace, g *graph.Graph, m *Mapping, ex par.Exec) (*graph.Graph, error) {
	if err := m.Validate(g.N()); err != nil {
		return nil, err
	}
	n, edges, nc := g.NumV, g.M(), m.NC
	dens := 0.0
	if nc > 0 {
		dens = 2 * float64(edges) / (float64(nc) * float64(nc))
	}
	// The rule sees the resolved parallelism (0 means GOMAXPROCS all the
	// way down to the kernels, but the serial-vs-parallel branches need
	// the actual degree). n bounds it the same way par.Workers does for
	// the builders themselves.
	rp := par.Workers(ex.P, int(n))
	name, reason := decideConstruct(edges, nc, dens, rp)
	t, ok := autoTargets[name]
	if !ok {
		return nil, fmt.Errorf("coarsen: auto policy chose unregistered builder %q", name)
	}
	cg, err := t.builder.BuildWith(ws, g, m, ex)
	if err != nil {
		return nil, err
	}

	b.last = &Choice{Builder: name, Reason: reason}
	ex.Span.Add(t.counter, 1)
	if ex.Span != nil {
		// A zero-width marker span makes the per-level decision visible in
		// the trace tree under the enclosing build span.
		ex.Span.Child("policy:" + name + ":" + reason).End()
	}
	return cg, nil
}

// autoTargets maps every builder name decideConstruct returns to the
// builder it dispatches to (reusing the caller's workspace, the
// builder-switching path TestWorkspaceReuseAcrossBuilderSwitch exercises)
// and the construct_auto counter that records the pick. The policy's sort
// always writes both-sided: on two cores the one-sided write speeds the
// sort up by only 0.50–1.44× (EXPERIMENTS.md, one-sided ablation), and
// the skew scan that would decide it costs an O(n) pass per level.
var autoTargets = map[string]struct {
	builder Builder
	counter obs.Counter
}{
	"sort":       {BuildSort{OneSided: OneSidedOff}, obs.CtrAutoSort},
	"hash":       {BuildHash{}, obs.CtrAutoHash},
	"spgemm":     {BuildSpGEMM{}, obs.CtrAutoSpGEMM},
	"globalsort": {BuildGlobalSort{}, obs.CtrAutoGlobalSort},
}

// decideConstruct is the documented decision rule: a pure function of the
// level statistics and the worker count. Branch order matters — the
// worker-count-independent branches (1–4) come first so that the builders
// with non-canonical output order (hash, spgemm) are chosen identically at
// every worker count.
//
//  1. No edges, or a single coarse vertex: nothing to deduplicate; the
//     sort builder's scatter has the least setup.
//  2. Tiny level (m <= 1024): hash — the level runs in microseconds and
//     hash has the smallest constant factor (wins or ties every
//     calibrated tiny level).
//  3. Near-clique densification (2m/nc² >= 1000): spgemm — duplication is
//     so extreme that the dense accumulator beats every sort-based
//     strategy (asymptotic regime; the threshold sits above the densest
//     calibrated level, where the global sort still won).
//  4. Dense-fold (2m/nc² >= 0.5): hash — most entries merge into
//     existing coarse edges, so the dedup tables stay cache-resident
//     while any global sort drags every duplicate through all its passes
//     (calibrated on the mycielskian17 analog's HEM levels). The regime is
//     inherently low-skew (a densifying level has no room for hubs), so
//     hash is safe at every worker count.
//  5. Serial (p == 1): globalsort — one global radix sort avoids all
//     partitioning overhead and won 19 of 21 calibrated levels on the
//     reference host.
//  6. Parallel: sort with the both-sided write — per-bin dedup with the
//     contention-free scatter, the paper's Table II winner. Skewed levels
//     take it too: the paper's segmented global sort answers GPU hub-bin
//     serialization, and on two CPU cores it took 2.2× as long as this
//     sort on fm-skewed's skewed levels (DESIGN.md, "Adaptive
//     construction").
func decideConstruct(m int64, nc int32, dens float64, p int) (name, reason string) {
	switch {
	case m == 0 || nc <= 1:
		return "sort", "trivial-level"
	case m <= autoTinyEdges:
		return "hash", "tiny-level"
	case dens >= autoCliqueDensity:
		return "spgemm", "near-clique"
	case dens >= autoDenseFoldDensity:
		return "hash", "dense-fold"
	case p == 1:
		return "globalsort", "serial-default"
	default:
		return "sort", "parallel-default"
	}
}

// PolicyBuilder is implemented by builders that make per-level dispatch
// decisions. Coarsener.Run uses it to record the chosen builder and reason
// in LevelStats.
type PolicyBuilder interface {
	Builder
	// LastChoice reports the most recent decision (nil before the first).
	LastChoice() *Choice
}
