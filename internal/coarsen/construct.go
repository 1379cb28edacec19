package coarsen

import (
	"mlcg/internal/graph"
	"mlcg/internal/obs"
	"mlcg/internal/par"
)

// DefaultSkewThreshold is the Δ/(2m/n) ratio above which the vertex-centric
// builders switch on the degree-based one-sided deduplication optimization
// (Section III.B: "we use the ratio of maximum degree to average vertex
// degree to estimate the skew, and selectively invoke this optimization").
const DefaultSkewThreshold = 8.0

// OneSidedMode selects how the vertex-centric builders place fine edges
// into coarse-vertex bins before deduplication.
type OneSidedMode int

const (
	// OneSidedBySkew writes one-sided only when the fine graph's degree
	// skew Δ/(2m/n) reaches DefaultSkewThreshold (the paper's rule).
	OneSidedBySkew OneSidedMode = iota
	// OneSidedOff always writes each fine directed edge at its own
	// endpoint (the unoptimized Algorithm 6).
	OneSidedOff
	// OneSidedOn always writes each fine undirected edge once, at the
	// endpoint whose coarse vertex has the smaller estimated degree.
	OneSidedOn
)

// applies reports whether the one-sided write is used on g.
func (o OneSidedMode) applies(g *graph.Graph, span *obs.Span) bool {
	switch o {
	case OneSidedOff:
		return false
	case OneSidedOn:
		return true
	}
	return degreeSkew(g, span) >= DefaultSkewThreshold
}

// degreeSkew is g.DegreeSkew with its max-degree scan charged to span.
func degreeSkew(g *graph.Graph, span *obs.Span) float64 {
	ad := g.AvgDegree()
	if ad == 0 {
		return 0
	}
	maxDeg := par.MaxInt64(g.N(), par.Exec{Span: span}, 0, func(i int) int64 { return g.Degree(int32(i)) })
	return float64(maxDeg) / ad
}

// BuildSort is the paper's default construction (Algorithm 6 with
// sort-based DEDUPWITHWTS): bin edges by coarse source vertex, sort each
// bin by coarse neighbor id, and merge duplicates by summing weights. On
// skewed graphs the one-sided write optimization stores each undirected
// edge only at the endpoint with the smaller estimated coarse degree,
// halving (often much more than halving, on hub-heavy bins) the sort work;
// a transpose pass then restores symmetry.
//
// All phases use the contention-free two-phase scatter (per-worker
// histogram + merged prefix offsets), so construction never contends on
// shared counters and the output CSR is byte-identical for every worker
// count.
type BuildSort struct {
	// OneSided overrides the skew rule (the one-sided dedup ablation sets
	// it); the zero value follows the rule like every other builder.
	OneSided OneSidedMode
}

// Name implements Builder.
func (BuildSort) Name() string { return "sort" }

// Build implements Builder.
func (b BuildSort) Build(g *graph.Graph, m *Mapping, ex par.Exec) (*graph.Graph, error) {
	return b.BuildWith(NewWorkspace(), g, m, ex)
}

// BuildWith implements Builder.
func (b BuildSort) BuildWith(ws *Workspace, g *graph.Graph, m *Mapping, ex par.Exec) (*graph.Graph, error) {
	return buildVertexCentric(ws, g, m, ex, b.OneSided.applies(g, ex.Span), dedupSortSegments)
}

// BuildHash is Algorithm 6 with hash-based DEDUPWITHWTS: per-vertex open
// addressing tables accumulate (neighbor, weight) pairs. Preferable when
// the duplication factor is high; the sort wins when duplication is near
// one (Section III.B).
type BuildHash struct{}

// Name implements Builder.
func (BuildHash) Name() string { return "hash" }

// Build implements Builder.
func (b BuildHash) Build(g *graph.Graph, m *Mapping, ex par.Exec) (*graph.Graph, error) {
	return b.BuildWith(NewWorkspace(), g, m, ex)
}

// BuildWith implements Builder.
func (BuildHash) BuildWith(ws *Workspace, g *graph.Graph, m *Mapping, ex par.Exec) (*graph.Graph, error) {
	return buildVertexCentric(ws, g, m, ex, OneSidedBySkew.applies(g, ex.Span), dedupHashSegments)
}

// dedupFunc deduplicates every coarse vertex's segment in place: for each
// vertex a, entries [r[a], r[a]+cnt[a]) of f/x are rewritten so the first
// newCnt[a] entries hold distinct neighbor ids with summed weights. The
// returned slice is scratch owned by ws. Implementations must write
// newCnt[a] for every a (including empty segments) and must be
// deterministic functions of the segment contents alone, so the final CSR
// stays byte-identical across worker counts.
type dedupFunc func(ws *Workspace, f []int32, x []int64, r []int64, cnt []int32, ex par.Exec) []int32

// aggregateVertexWeights sums fine vertex weights per aggregate without
// contention-free: per-worker partial arrays over the fixed ranges, then a
// bin-parallel reduction. The int64 sums are exact, so the result is
// independent of the worker count.
func aggregateVertexWeights(ws *Workspace, g *graph.Graph, mv []int32, nc int, ex par.Exec, bounds []int) []int64 {
	vwgt := make([]int64, nc)
	p := ex.P
	if p == 1 {
		for i := range mv {
			vwgt[mv[i]] += g.VertexWeight(int32(i))
		}
		return vwgt
	}
	parts := ws.weightPartials(p, nc, ex.Span)
	par.ForRanges(bounds, ex.Span, func(w, lo, hi int) {
		pw := parts[w]
		for i := lo; i < hi; i++ {
			pw[mv[i]] += g.VertexWeight(int32(i))
		}
	})
	par.ForChunked(nc, ex, 2048, func(_, lo, hi int) {
		for a := lo; a < hi; a++ {
			var s int64
			for w := 0; w < p; w++ {
				s += parts[w][a]
			}
			vwgt[a] = s
		}
	})
	return vwgt
}

// buildVertexCentric is the shared skeleton of Algorithm 6, restructured
// as a contention-free two-phase scatter. Workers own contiguous
// edge-balanced vertex ranges; each pass counts bin contributions into a
// private histogram, par.MergeHistograms converts the counts into exact
// per-worker write offsets, and the scatter pass writes every (f, x)
// entry to its precomputed slot without contended writes. Because the ranges are
// ordered, bin contents come out in fine-vertex order regardless of the
// worker count — the basis of the byte-identical determinism guarantee.
func buildVertexCentric(ws *Workspace, g *graph.Graph, m *Mapping, ex par.Exec, oneSided bool, dedup dedupFunc) (*graph.Graph, error) {
	n := g.N()
	if err := m.Validate(n); err != nil {
		return nil, err
	}
	nc := int(m.NC)
	mv := m.M
	ex.P = par.Workers(ex.P, n)
	p := ex.P

	ws.bounds = par.BalancedRanges(ws.bounds, g.Xadj, p)
	bounds := ws.bounds

	// Aggregate vertex weights.
	kx := ex.Kernel("cons:vwgt")
	vwgt := aggregateVertexWeights(ws, g, mv, nc, kx, bounds)
	kx.Span.End()

	// Step 1: upper-bound coarse degrees C' (both-sided counts) via
	// per-worker histograms.
	kx = ex.Kernel("cons:count")
	hists := ws.histograms(p, nc, kx.Span)
	par.ForRanges(bounds, kx.Span, func(w, lo, hi int) {
		h := hists[w]
		for i := lo; i < hi; i++ {
			u := int32(i)
			a := mv[u]
			adj, _ := g.Neighbors(u)
			for _, v := range adj {
				if mv[v] != a {
					h[a]++
				}
			}
		}
	})
	cEst := growI32(&ws.cEst, nc, kx.Span)
	par.MergeHistograms(hists, cEst, kx)
	kx.Span.End()

	// writeHere reports whether the directed fine edge (u, v) is placed in
	// the bin of M[u]. One-sided mode picks the endpoint whose coarse
	// vertex has the smaller estimated degree, tie-broken by fine id
	// (Algorithm 6, line 9): exactly one of (u,v) / (v,u) qualifies.
	writeHere := func(u, v int32, a, bb int32) bool {
		if !oneSided {
			return true
		}
		if cEst[a] != cEst[bb] {
			return cEst[a] < cEst[bb]
		}
		return u < v
	}

	// Step 2: exact bin sizes C. In both-sided mode the step-1 histograms
	// already hold the per-worker write offsets after MergeHistograms; in
	// one-sided mode recount with the one-sided filter.
	cnt := cEst
	if oneSided {
		kx = ex.Kernel("cons:recount")
		hists = ws.histograms(p, nc, kx.Span)
		par.ForRanges(bounds, kx.Span, func(w, lo, hi int) {
			h := hists[w]
			for i := lo; i < hi; i++ {
				u := int32(i)
				a := mv[u]
				adj, _ := g.Neighbors(u)
				for _, v := range adj {
					bb := mv[v]
					if bb != a && writeHere(u, v, a, bb) {
						h[a]++
					}
				}
			}
		})
		cnt = growI32(&ws.cnt, nc, kx.Span)
		par.MergeHistograms(hists, cnt, kx)
		kx.Span.End()
	}

	// Step 3: offsets.
	r := growI64(&ws.r, nc+1, ex.Span)
	total := par.PrefixSumInt32(r, cnt, ex)

	// Step 4: scatter adjacencies and weights into precomputed windows —
	// worker w owns [r[a]+hists[w][a], ...) of bin a.
	kx = ex.Kernel("cons:scatter")
	f := growI32(&ws.binF, int(total), kx.Span)
	x := growI64(&ws.binX, int(total), kx.Span)
	par.ForRanges(bounds, kx.Span, func(w, lo, hi int) {
		h := hists[w]
		for i := lo; i < hi; i++ {
			u := int32(i)
			a := mv[u]
			adj, wgt := g.Neighbors(u)
			for k, v := range adj {
				bb := mv[v]
				if bb == a || !writeHere(u, v, a, bb) {
					continue
				}
				l := r[a] + int64(h[a])
				h[a]++
				f[l] = bb
				x[l] = wgt[k]
			}
		}
	})
	kx.Span.End()

	// Step 5: per-vertex deduplication.
	newCnt := dedup(ws, f, x, r, cnt, ex)

	// Step 6: final CSR, with the transpose merge in one-sided mode.
	var cg *graph.Graph
	if oneSided {
		kx = ex.Kernel("cons:symmetrize")
		cg = symmetrizeDeduped(ws, f, x, r, newCnt, nc, kx, dedup)
	} else {
		kx = ex.Kernel("cons:compact")
		cg = compactDeduped(f, x, r, newCnt, nc, kx)
	}
	kx.Span.End()
	cg.VWgt = vwgt
	return cg, nil
}

// compactDeduped packs the dedup'd segments into a tight CSR graph.
func compactDeduped(f []int32, x []int64, r []int64, newCnt []int32, nc int, ex par.Exec) *graph.Graph {
	xadj := make([]int64, nc+1)
	par.PrefixSumInt32(xadj, newCnt, ex)
	adj := make([]int32, xadj[nc])
	wgt := make([]int64, xadj[nc])
	par.ForEachChunked(nc, ex, 256, func(a int) {
		src := r[a]
		dst := xadj[a]
		for k := int32(0); k < newCnt[a]; k++ {
			adj[dst] = f[src]
			wgt[dst] = x[src]
			src++
			dst++
		}
	})
	return &graph.Graph{NumV: int32(nc), Xadj: xadj, Adj: adj, Wgt: wgt}
}

// symmetrizeDeduped implements GRAPHCONSWITHTRANS (Algorithm 6, line 22):
// the one-sided dedup'd lists contain each coarse edge in at least one
// direction with possibly split weights; emit both directions of every
// entry, then dedup once more (segments are now at most twice the final
// degree) and compact. The transpose scatter uses the same two-phase
// histogram scheme as the binning passes: workers own contiguous ranges of
// source bins (balanced by the pre-dedup bin mass in r), so the merged
// bins come out ordered by source bin — again byte-identical across
// worker counts, without contended writes.
func symmetrizeDeduped(ws *Workspace, f []int32, x []int64, r []int64, newCnt []int32, nc int, ex par.Exec, dedup dedupFunc) *graph.Graph {
	ex.P = par.Workers(ex.P, nc)
	ws.bounds2 = par.BalancedRanges(ws.bounds2, r, ex.P)
	bounds := ws.bounds2

	hists := ws.histograms(ex.P, nc, ex.Span)
	par.ForRanges(bounds, ex.Span, func(w, lo, hi int) {
		h := hists[w]
		for a := lo; a < hi; a++ {
			base := r[a]
			h[a] += newCnt[a]
			for k := int64(0); k < int64(newCnt[a]); k++ {
				h[f[base+k]]++
			}
		}
	})
	cnt2 := growI32(&ws.cnt2, nc, ex.Span)
	par.MergeHistograms(hists, cnt2, ex)
	r2 := growI64(&ws.r2, nc+1, ex.Span)
	total := par.PrefixSumInt32(r2, cnt2, ex)

	f2 := growI32(&ws.symF, int(total), ex.Span)
	x2 := growI64(&ws.symX, int(total), ex.Span)
	par.ForRanges(bounds, ex.Span, func(w, lo, hi int) {
		h := hists[w]
		for a := lo; a < hi; a++ {
			base := r[a]
			for k := int64(0); k < int64(newCnt[a]); k++ {
				b := f[base+k]
				wv := x[base+k]
				la := r2[a] + int64(h[a])
				h[a]++
				f2[la] = b
				x2[la] = wv
				lb := r2[b] + int64(h[b])
				h[b]++
				f2[lb] = int32(a)
				x2[lb] = wv
			}
		}
	})
	newCnt2 := dedup(ws, f2, x2, r2, cnt2, ex)
	return compactDeduped(f2, x2, r2, newCnt2, nc, ex)
}

// dedupSortSegments sorts each segment by neighbor id and merges equal
// keys by summing weights (the bitonic/radix team sort of the paper,
// realized as insertion sort for short lists and LSD radix above).
func dedupSortSegments(ws *Workspace, f []int32, x []int64, r []int64, cnt []int32, ex par.Exec) []int32 {
	ex = ex.Kernel("dedup:sort")
	span := ex.Span
	defer span.End()
	nc := len(cnt)
	newCnt := growI32(&ws.newCnt, nc, span)
	ex.P = par.Workers(ex.P, nc)
	scratch := ws.sortScratchFor(ex.P)
	par.ForChunked(nc, ex, 64, func(wid, aLo, aHi int) {
		sc := scratch[wid]
		for a := aLo; a < aHi; a++ {
			lo := r[a]
			hi := lo + int64(cnt[a])
			seg := f[lo:hi]
			wseg := x[lo:hi]
			par.SortPairsInt32Scratch(seg, wseg, sc)
			var w int32 // write cursor
			for i := 0; i < len(seg); i++ {
				if w > 0 && seg[w-1] == seg[i] {
					wseg[w-1] += wseg[i]
				} else {
					seg[w] = seg[i]
					wseg[w] = wseg[i]
					w++
				}
			}
			newCnt[a] = w
		}
		span.Add(obs.CtrRadixPass, sc.TakePasses())
	})
	return newCnt
}

// dedupHashSegments deduplicates each segment with a per-worker open
// addressing accumulator, then writes the distinct pairs back to the
// segment prefix (unsorted). The table's logical capacity is a function
// of the segment size alone, so the slot layout — and therefore the
// unsorted output order — is deterministic for any worker count.
func dedupHashSegments(ws *Workspace, f []int32, x []int64, r []int64, cnt []int32, ex par.Exec) []int32 {
	ex = ex.Kernel("dedup:hash")
	span := ex.Span
	defer span.End()
	nc := len(cnt)
	newCnt := growI32(&ws.newCnt, nc, span)
	ex.P = par.Workers(ex.P, nc)
	tables := ws.tablesFor(ex.P)
	par.ForChunked(nc, ex, 64, func(wid, aLo, aHi int) {
		ht := tables[wid]
		defer ht.flushCounters(span)
		for a := aLo; a < aHi; a++ {
			lo := r[a]
			hi := lo + int64(cnt[a])
			if lo == hi {
				newCnt[a] = 0
				continue
			}
			ht.reset(int(hi - lo))
			for i := lo; i < hi; i++ {
				ht.add(f[i], x[i])
			}
			w := lo
			for s := 0; s < ht.cap; s++ {
				if ht.occupied(s) {
					f[w] = ht.keys[s]
					x[w] = ht.vals[s]
					w++
				}
			}
			newCnt[a] = int32(w - lo)
		}
	})
	return newCnt
}

// weightTable is an int32 -> int64 open-addressing accumulator sized to
// the current segment. Slots are validated by an epoch stamp, so reset is
// O(1) instead of O(capacity): bumping the epoch invalidates every slot at
// once. The logical capacity (cap) is always the smallest power of two
// holding twice the segment, a pure function of the segment size, which
// keeps the probe sequence — and therefore the unsorted dedup output —
// independent of what the table processed before.
type weightTable struct {
	keys  []int32
	vals  []int64
	stamp []uint64
	epoch uint64
	cap   int // logical capacity for the current segment (power of two)

	// probes/collisions accumulate locally (plain adds, one per slot
	// inspection) and reach the obs layer only via flushCounters, so add()
	// itself never touches shared state.
	probes     int64
	collisions int64
}

// flushCounters adds the accumulated probe statistics to span and clears
// them. Callers flush once per parallel chunk, not per segment.
func (t *weightTable) flushCounters(span *obs.Span) {
	span.Add(obs.CtrHashProbe, t.probes)
	span.Add(obs.CtrHashCollision, t.collisions)
	t.probes, t.collisions = 0, 0
}

func newWeightTable(capacity int) *weightTable {
	t := &weightTable{}
	t.reset(capacity)
	return t
}

// reset prepares the table for a segment of the given size in O(1),
// growing the backing arrays only when the logical capacity exceeds them.
func (t *weightTable) reset(size int) {
	c := 16
	for c < 2*size {
		c *= 2
	}
	t.cap = c
	if c > len(t.keys) {
		t.keys = make([]int32, c)
		t.vals = make([]int64, c)
		t.stamp = make([]uint64, c)
		t.epoch = 0
	}
	t.epoch++
}

// occupied reports whether slot s holds a live entry for the current
// segment.
func (t *weightTable) occupied(s int) bool { return t.stamp[s] == t.epoch }

func (t *weightTable) add(k int32, v int64) {
	mask := uint32(t.cap - 1)
	s := (uint32(k) * 2654435761) & mask
	for {
		t.probes++
		if t.stamp[s] != t.epoch {
			t.stamp[s] = t.epoch
			t.keys[s] = k
			t.vals[s] = v
			return
		}
		if t.keys[s] == k {
			t.vals[s] += v
			return
		}
		t.collisions++
		s = (s + 1) & mask
	}
}
