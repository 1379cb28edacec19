package coarsen

import (
	"mlcg/internal/graph"
	"mlcg/internal/obs"
	"mlcg/internal/par"
)

// BuildHybrid realizes the paper's future-work idea of "deciding whether
// to sort or hash on a per-vertex basis": short bins use the insertion/
// radix sort path (duplication is usually low there), long bins — the hub
// bins of skewed graphs where duplication concentrates — use the hash
// accumulator.
type BuildHybrid struct {
	SkewThreshold float64
	ForceOneSided bool
	// SortBelow is the bin length under which the sort path is used.
	// Zero means 128.
	SortBelow int
}

// Name implements Builder.
func (BuildHybrid) Name() string { return "hybrid" }

// Build implements Builder.
func (b BuildHybrid) Build(g *graph.Graph, m *Mapping, p int) (*graph.Graph, error) {
	return b.BuildWith(NewWorkspace(), g, m, p)
}

// BuildWith implements WorkspaceBuilder.
func (b BuildHybrid) BuildWith(ws *Workspace, g *graph.Graph, m *Mapping, p int) (*graph.Graph, error) {
	mode := BuildSort{SkewThreshold: b.SkewThreshold, ForceOneSided: b.ForceOneSided}.mode(g)
	cutover := b.SortBelow
	if cutover <= 0 {
		cutover = 128
	}
	dedup := func(ws *Workspace, f []int32, x []int64, r []int64, cnt []int32, p int) []int32 {
		return dedupHybridSegments(ws, f, x, r, cnt, p, cutover)
	}
	return buildVertexCentric(ws, g, m, p, mode, dedup)
}

// dedupHybridSegments picks sort or hash per segment by length.
func dedupHybridSegments(ws *Workspace, f []int32, x []int64, r []int64, cnt []int32, p, cutover int) []int32 {
	span := obs.StartKernel("dedup:hybrid")
	defer span.Done()
	nc := len(cnt)
	newCnt := growI32(&ws.newCnt, nc)
	p = par.Workers(p, nc)
	tables := ws.tablesFor(p)
	scratch := ws.sortScratchFor(p)
	par.ForChunked(nc, p, 64, func(wid, aLo, aHi int) {
		ht := tables[wid]
		defer ht.flushCounters()
		sc := scratch[wid]
		for a := aLo; a < aHi; a++ {
			lo := r[a]
			n := int(cnt[a])
			if n == 0 {
				newCnt[a] = 0
				continue
			}
			seg := f[lo : lo+int64(n)]
			wseg := x[lo : lo+int64(n)]
			if n < cutover {
				par.SortPairsInt32Scratch(seg, wseg, sc)
				var w int32
				for i := 0; i < n; i++ {
					if w > 0 && seg[w-1] == seg[i] {
						wseg[w-1] += wseg[i]
					} else {
						seg[w] = seg[i]
						wseg[w] = wseg[i]
						w++
					}
				}
				newCnt[a] = w
				continue
			}
			ht.reset(n)
			for i := 0; i < n; i++ {
				ht.add(seg[i], wseg[i])
			}
			var w int64
			for s := 0; s < ht.cap; s++ {
				if ht.occupied(s) {
					seg[w] = ht.keys[s]
					wseg[w] = ht.vals[s]
					w++
				}
			}
			newCnt[a] = int32(w)
		}
	})
	return newCnt
}
