// Package coarsen implements the paper's primary contribution: parallel
// fine-to-coarse vertex mapping algorithms and coarse graph construction
// strategies for multilevel graph analysis.
//
// Mapping algorithms (Section III.A):
//
//   - HECSeq   — sequential Heavy Edge Coarsening (Algorithm 3)
//   - HEC      — lock-free parallel HEC (Algorithm 4)
//   - HEC2     — intermediate decoupled parallelization (tech-report Alg 9)
//   - HEC3     — pseudoforest parallelization (Algorithm 5)
//   - HEMSeq   — sequential Heavy Edge Matching (Algorithm 2)
//   - HEM      — parallel HEM with per-pass heavy recomputation (Alg 10)
//   - TwoHop   — mt-Metis style HEM + leaf/twin/relative matching
//   - MIS2     — Bell et al. distance-2 MIS aggregation
//   - MIS2Fast — Kelley–Rajamanickam worklist-driven D2-MIS with fused
//     aggregation (arXiv:2204.02934); same fixpoint as MIS2
//   - GOSH     — degree-ordered aggregation that avoids hub-hub merges
//   - GOSHHEC  — the paper's new weighted GOSH/HEC hybrid (Alg 16)
//
// Construction strategies (Section III.B):
//
//   - BuildSort       — Algorithm 6 with per-vertex sort deduplication and
//     the degree-based one-sided write optimization for skewed graphs
//   - BuildHash       — Algorithm 6 with per-vertex hash-table dedup
//   - BuildSpGEMM     — the P·A·Pᵀ triple product via internal/spmat
//   - BuildGlobalSort — global edge-triple sort baseline
//
// BuilderNames lists every registered strategy: the four above and
// AutoConstruct, the adaptive per-level policy that dispatches among them.
//
// The Coarsener type drives the multilevel loop (Algorithm 1) with the
// paper's cutoff-50 / discard-below-10 rules.
package coarsen

import (
	"fmt"

	"mlcg/internal/graph"
	"mlcg/internal/par"
)

// Mapping is the result of one fine-to-coarse mapping step: M[u] is the
// coarse vertex id of fine vertex u, with compact ids in [0, NC).
type Mapping struct {
	M  []int32
	NC int32

	// Passes and PassMapped describe multi-pass algorithms (HEC/HEM):
	// PassMapped[i] is how many vertices became mapped during pass i.
	// The paper reports 99.4% of vertices mapping within two passes.
	Passes     int
	PassMapped []int64
}

// Validate checks that m is a complete, compact mapping for an n-vertex
// fine graph.
func (m *Mapping) Validate(n int) error {
	if len(m.M) != n {
		return fmt.Errorf("coarsen: mapping covers %d vertices, want %d", len(m.M), n)
	}
	// A compact mapping uses every coarse id, so NC <= n; checking that
	// first keeps a hostile NC from sizing the seen array.
	if m.NC < 0 || (n > 0 && m.NC == 0) || int(m.NC) > n {
		return fmt.Errorf("coarsen: bad coarse count %d for %d vertices", m.NC, n)
	}
	seen := make([]bool, m.NC)
	for u, a := range m.M {
		if a < 0 || a >= m.NC {
			return fmt.Errorf("coarsen: vertex %d maps to %d, out of [0,%d)", u, a, m.NC)
		}
		seen[a] = true
	}
	for a, ok := range seen {
		if !ok {
			return fmt.Errorf("coarsen: coarse id %d unused (not compact)", a)
		}
	}
	return nil
}

// Ratio returns the coarsening ratio n/nc of this step.
func (m *Mapping) Ratio() float64 {
	if m.NC == 0 {
		return 0
	}
	return float64(len(m.M)) / float64(m.NC)
}

// Mapper computes a fine-to-coarse mapping of g. Implementations must
// return compact coarse ids. seed controls the random ordering; ex gives
// the worker count (ex.P <= 0 means GOMAXPROCS) and the span the mapper's
// kernels open their spans under (nil when untraced).
//
// All registered mappers are schedule-independent: for a fixed (graph,
// seed), M and NC are byte-identical at every worker count. Coarse ids are
// the canonical labels produced by canonicalize — aggregates numbered by
// the minimum permutation position of their members (see DESIGN.md,
// "Canonical coarse IDs and cross-worker determinism").
type Mapper interface {
	Name() string
	Map(g *graph.Graph, seed uint64, ex par.Exec) (*Mapping, error)
}

// Builder constructs the coarse graph from a fine graph and a mapping.
// Build runs on private scratch; BuildWith runs its scratch phase out of a
// caller-provided Workspace (ws must be non-nil), which Coarsener.Run
// reuses across all levels of a hierarchy. ex is as for Mapper.Map.
type Builder interface {
	Name() string
	Build(g *graph.Graph, m *Mapping, ex par.Exec) (*graph.Graph, error)
	BuildWith(ws *Workspace, g *graph.Graph, m *Mapping, ex par.Exec) (*graph.Graph, error)
}

// mapperRegistry is the single roster of mapping algorithms in canonical
// order. Every name-facing surface — MapperByName, MapperNames, AllMappers,
// CLI -mapper help strings, bench sweeps — derives from this list, so a new
// mapper registered here appears everywhere at once and cannot drift.
var mapperRegistry = []Mapper{
	HEC{}, HECSeq{}, HEC2{}, HEC3{}, HEM{}, HEMSeq{}, TwoHop{},
	MIS2{}, MIS2Fast{}, GOSH{}, GOSHHEC{},
}

// AllMappers returns one instance of every registered mapping algorithm in
// canonical registry order. The instances are stateless values and safe to
// share; callers that need a mapper by name should use MapperByName.
func AllMappers() []Mapper {
	out := make([]Mapper, len(mapperRegistry))
	copy(out, mapperRegistry)
	return out
}

// MapperByName returns the mapper registered under name (see MapperNames
// for the roster).
func MapperByName(name string) (Mapper, error) {
	for _, m := range mapperRegistry {
		if m.Name() == name {
			return m, nil
		}
	}
	return nil, fmt.Errorf("coarsen: unknown mapper %q", name)
}

// MapperNames lists the registered mapping algorithms in registry order.
func MapperNames() []string {
	out := make([]string, len(mapperRegistry))
	for i, m := range mapperRegistry {
		out[i] = m.Name()
	}
	return out
}

// builderRegistry pairs every construction strategy's name with its
// factory, in canonical order. Factories (not shared values) because the
// auto builder is a stateful per-hierarchy policy that must be fresh per
// call.
var builderRegistry = []struct {
	name string
	make func() Builder
}{
	{"sort", func() Builder { return BuildSort{} }},
	{"hash", func() Builder { return BuildHash{} }},
	{"spgemm", func() Builder { return BuildSpGEMM{} }},
	{"globalsort", func() Builder { return BuildGlobalSort{} }},
	{"auto", func() Builder { return &AutoConstruct{} }},
}

// BuilderByName returns the builder registered under name (see
// BuilderNames). The auto builder is the adaptive per-level policy (a fresh
// stateful instance per call).
func BuilderByName(name string) (Builder, error) {
	for _, b := range builderRegistry {
		if b.name == name {
			return b.make(), nil
		}
	}
	return nil, fmt.Errorf("coarsen: unknown builder %q", name)
}

// BuilderNames lists the registered construction strategies (the fixed
// kernels plus the adaptive auto policy) in registry order.
func BuilderNames() []string {
	out := make([]string, len(builderRegistry))
	for i, b := range builderRegistry {
		out[i] = b.name
	}
	return out
}

const unset = int32(-1)
