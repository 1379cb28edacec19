package coarsen

import (
	"fmt"

	"mlcg/internal/graph"
	"mlcg/internal/par"
)

// Project carries per-vertex values one level finer through the mapping m:
// the result holds coarse[m[u]] for every fine vertex u. It is the one
// gather through a mapping array. Projecting a mapping composes it:
// Project(next, m, ex) maps m's fine vertices onto next's coarse ones.
// Workers claim 2048-vertex chunks, so a map shorter than one chunk (the
// coarse levels, and the pieces deep in a recursive partition) is
// gathered inline without starting a goroutine.
func Project[T any](coarse []T, m []int32, ex par.Exec) []T {
	fine := make([]T, len(m))
	par.ForChunked(len(m), ex, 2048, func(_, lo, hi int) {
		for u := lo; u < hi; u++ {
			fine[u] = coarse[m[u]]
		}
	})
	return fine
}

// Uncoarsen is the walk back up a hierarchy that ends every multilevel
// pipeline. It runs step on Graphs[from] with the state s, then, for each
// finer level i, carries the state through Maps[i] with project and runs
// step on Graphs[i]. It returns the state the step on level 0 leaves, or
// the first error a step returns. A pipeline that solves on the coarsest
// graph passes from = h.Levels().
//
// Traced (ex.Span non-nil), level i runs under a "<name>:level i" span and
// the projection to level i−1 under a "<name>:project" child of it; step
// and project receive ex with that span. name must not start with
// "level ", which names coarsening levels. A walk over zero levels
// (from == 0) opens no span, and an untraced walk formats no name.
func Uncoarsen[S any](h *Hierarchy, from int, s S, name string, ex par.Exec,
	step func(i int, g *graph.Graph, s S, ex par.Exec) (S, error),
	project func(coarse S, m []int32, ex par.Exec) S) (S, error) {
	if from == 0 {
		return step(0, h.Graphs[0], s, ex)
	}
	for i := from; ; i-- {
		lvl := ex
		if ex.Span != nil {
			lvl.Span = ex.Span.Child(fmt.Sprintf("%s:level %d", name, i))
		}
		var err error
		if s, err = step(i, h.Graphs[i], s, lvl); err != nil || i == 0 {
			lvl.Span.End()
			return s, err
		}
		proj := lvl
		if lvl.Span != nil {
			proj.Span = lvl.Span.Child(name + ":project")
		}
		s = project(s, h.Maps[i-1], proj)
		proj.Span.End()
		lvl.Span.End()
	}
}
