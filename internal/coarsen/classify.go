package coarsen

import (
	"mlcg/internal/graph"
	"mlcg/internal/obs"
	"mlcg/internal/par"
)

// EdgeClass labels a heavy edge <u, H[u]> by its role in the sequential
// HEC execution (Fig. 2 of the paper).
type EdgeClass int8

const (
	// CreateEdge maps both endpoints to a freshly created coarse vertex.
	CreateEdge EdgeClass = iota
	// InheritEdge maps u into the aggregate its heavy neighbor already
	// belongs to.
	InheritEdge
	// SkipEdge is ignored because u was already mapped when visited.
	SkipEdge
)

// String implements fmt.Stringer.
func (c EdgeClass) String() string {
	switch c {
	case CreateEdge:
		return "create"
	case InheritEdge:
		return "inherit"
	case SkipEdge:
		return "skip"
	}
	return "unknown"
}

// Classification is the result of replaying sequential HEC over the heavy
// edge set.
type Classification struct {
	// Class[u] labels the heavy edge <u, H[u]>.
	Class []EdgeClass
	// Heavy[u] is the heavy neighbor H[u] (== u for isolated vertices).
	Heavy []int32
	// Counts per class, indexed by EdgeClass.
	Counts [3]int64
	// NC is the number of coarse vertices the replay produced; it always
	// equals Counts[CreateEdge].
	NC int32
}

// ClassifyHeavyEdges replays the sequential HEC algorithm (Algorithm 3)
// over the heavy edge set of g and labels every edge as create, inherit,
// or skip (Fig. 2, left). The heavy-neighbor digraph itself (Fig. 2,
// right) is the returned Heavy array: every vertex has out-degree one, so
// it forms a pseudoforest.
func ClassifyHeavyEdges(g *graph.Graph, seed uint64) *Classification {
	n := g.N()
	ex := par.Exec{P: 1, Span: obs.Ambient()}
	perm := par.RandPerm(n, seed, ex)
	pos := par.InversePerm(perm, ex)
	hv := heavyNeighbors(g, pos, ex)

	m := make([]int32, n)
	for i := range m {
		m[i] = unset
	}
	cls := &Classification{
		Class: make([]EdgeClass, n),
		Heavy: hv,
	}
	var nc int32
	for _, u := range perm {
		v := hv[u]
		if m[u] != unset {
			cls.Class[u] = SkipEdge
			cls.Counts[SkipEdge]++
			continue
		}
		if v == u { // isolated: counts as create of a singleton
			m[u] = nc
			nc++
			cls.Class[u] = CreateEdge
			cls.Counts[CreateEdge]++
			continue
		}
		if m[v] == unset {
			m[v] = nc
			nc++
			m[u] = m[v]
			cls.Class[u] = CreateEdge
			cls.Counts[CreateEdge]++
		} else {
			m[u] = m[v]
			cls.Class[u] = InheritEdge
			cls.Counts[InheritEdge]++
		}
	}
	cls.NC = nc
	return cls
}
