package coarsen

import (
	"mlcg/internal/graph"
	"mlcg/internal/par"
)

// BuildSegSort is the segmented-global-sort alternative the paper mentions
// in Section III.B ("A segmented global sort is also an alternative to
// separate per-vertex sorts"): instead of sorting each coarse vertex's bin
// independently, all bins are sorted at once by one parallel radix sort on
// the composite key (bin id, neighbor id). Long hub bins then benefit from
// the fully parallel sort instead of serializing inside one worker.
type BuildSegSort struct{}

// Name implements Builder.
func (BuildSegSort) Name() string { return "segsort" }

// Build implements Builder.
func (b BuildSegSort) Build(g *graph.Graph, m *Mapping, ex par.Exec) (*graph.Graph, error) {
	return b.BuildWith(NewWorkspace(), g, m, ex)
}

// BuildWith implements Builder.
func (BuildSegSort) BuildWith(ws *Workspace, g *graph.Graph, m *Mapping, ex par.Exec) (*graph.Graph, error) {
	return buildVertexCentric(ws, g, m, ex, OneSidedBySkew.applies(g, ex.Span), dedupSegmentedSort)
}

// dedupSegmentedSort deduplicates all segments with a single global sort
// on (segment, key) composite keys followed by a per-segment merge scan.
// The bins produced by the two-phase scatter are dense (r[a+1] = r[a] +
// cnt[a]), so packing the composite keys is an index-parallel pass and the
// sorted stream unpacks back into the same positions. LSD radix is stable,
// so the result is deterministic for every worker count.
func dedupSegmentedSort(ws *Workspace, f []int32, x []int64, r []int64, cnt []int32, ex par.Exec) []int32 {
	nc := len(cnt)
	newCnt := growI32(&ws.newCnt, nc, ex.Span)
	total := r[nc]
	keys := growU64(&ws.keys64, int(total), ex.Span)
	vals := growU64(&ws.vals64, int(total), ex.Span)
	// Pack (segment id, neighbor id) into one 64-bit key.
	par.ForEachChunked(nc, ex, 256, func(a int) {
		lo := r[a]
		hi := lo + int64(cnt[a])
		for i := lo; i < hi; i++ {
			keys[i] = uint64(uint32(a))<<32 | uint64(uint32(f[i]))
			vals[i] = uint64(x[i])
		}
	})
	par.RadixSortPairs(keys, vals, ex)

	// Unpack: the sorted stream is grouped by segment (high bits), so each
	// segment's entries are back at [r[a], r[a]+cnt[a]); merge duplicates
	// into f/x.
	par.ForChunked(nc, ex, 64, func(_, aLo, aHi int) {
		for a := aLo; a < aHi; a++ {
			lo := r[a]
			hi := lo + int64(cnt[a])
			w := lo
			var written int32
			for i := lo; i < hi; i++ {
				k := int32(uint32(keys[i]))
				v := int64(vals[i])
				if written > 0 && f[w-1] == k {
					x[w-1] += v
				} else {
					f[w] = k
					x[w] = v
					w++
					written++
				}
			}
			newCnt[a] = written
		}
	})
	return newCnt
}
