package spmat

import (
	"mlcg/internal/graph"
	"mlcg/internal/obs"
	"mlcg/internal/par"
)

// SpGEMM computes C = A·B with the two-phase scheme used by Kokkos
// Kernels' kernel the paper calls: a symbolic pass sizes each output row
// with a per-row hash set, then a numeric pass accumulates values with a
// per-row hash map. Rows are processed in parallel with dynamic
// scheduling; each worker reuses one scratch hash table across its rows.
func SpGEMM(a, b *CSR, ex par.Exec) *CSR {
	if a.Cols != b.Rows {
		panic("spmat: SpGEMM dimension mismatch")
	}
	n := int(a.Rows)

	// Symbolic phase: count distinct columns per output row.
	counts := make([]int32, n)
	par.ForChunked(n, ex, 64, func(_, lo, hi int) {
		ht := newHashSet(64)
		for i := lo; i < hi; i++ {
			ht.reset()
			acols, _ := a.Row(int32(i))
			for _, k := range acols {
				bcols, _ := b.Row(k)
				for _, c := range bcols {
					ht.insert(c)
				}
			}
			counts[i] = int32(ht.size)
		}
	})

	rowptr := make([]int64, n+1)
	nnz := par.PrefixSumInt32(rowptr, counts, ex)
	col := make([]int32, nnz)
	val := make([]float64, nnz)

	// Numeric phase: accumulate values per row and emit. The accumulator is
	// reset to a capacity derived from the symbolic row count, so the slot
	// layout — and with it the emitted column order — is a deterministic
	// function of the row alone, independent of worker count or scheduling.
	par.ForChunked(n, ex, 64, func(_, lo, hi int) {
		hm := newHashMap(64)
		for i := lo; i < hi; i++ {
			hm.resetSized(int(rowptr[i+1] - rowptr[i]))
			acols, avals := a.Row(int32(i))
			for j, k := range acols {
				av := avals[j]
				bcols, bvals := b.Row(k)
				for t, c := range bcols {
					hm.add(c, av*bvals[t])
				}
			}
			pos := rowptr[i]
			for s := 0; s < hm.cap; s++ {
				if hm.occupied(s) {
					col[pos] = hm.keys[s]
					val[pos] = hm.vals[s]
					pos++
				}
			}
		}
	})
	return &CSR{Rows: a.Rows, Cols: b.Cols, Rowptr: rowptr, Col: col, Val: val}
}

// PAPt computes P·A·Pᵀ, the linear-algebra formulation of coarse graph
// construction: P is the nc×n binary aggregation matrix with
// P(M[u], u) = 1 (Section II of the paper).
func PAPt(a *CSR, m []int32, nc int32, ex par.Exec) *CSR {
	pm := AggregationMatrix(m, nc, int(a.Rows))
	pt := pm.Transpose(ex)
	apt := SpGEMM(a, pt, ex)
	return SpGEMM(pm, apt, ex)
}

// AggregationMatrix builds the nc×n CSR matrix P with P(m[u], u) = 1.
func AggregationMatrix(m []int32, nc int32, n int) *CSR {
	counts := make([]int32, nc)
	for _, a := range m {
		counts[a]++
	}
	rowptr := make([]int64, nc+1)
	par.PrefixSumInt32(rowptr, counts, par.Exec{P: 1})
	col := make([]int32, n)
	pos := make([]int64, nc)
	copy(pos, rowptr[:nc])
	for u := 0; u < n; u++ {
		a := m[u]
		col[pos[a]] = int32(u)
		pos[a]++
	}
	val := make([]float64, n)
	for i := range val {
		val[i] = 1
	}
	return &CSR{Rows: nc, Cols: int32(n), Rowptr: rowptr, Col: col, Val: val}
}

// Laplacian returns the weighted graph Laplacian L = D − A of g. Each row
// carries the diagonal entry first.
func Laplacian(g *graph.Graph) *CSR {
	n := g.N()
	rowptr := make([]int64, n+1)
	for i := 0; i < n; i++ {
		rowptr[i+1] = rowptr[i] + (g.Xadj[i+1] - g.Xadj[i]) + 1
	}
	col := make([]int32, rowptr[n])
	val := make([]float64, rowptr[n])
	par.ForEachChunked(n, par.Exec{Span: obs.Ambient()}, 512, func(i int) {
		u := int32(i)
		adj, wgt := g.Neighbors(u)
		pos := rowptr[i]
		var deg float64
		for k, v := range adj {
			deg += float64(wgt[k])
			col[pos+1+int64(k)] = v
			val[pos+1+int64(k)] = -float64(wgt[k])
		}
		col[pos] = u
		val[pos] = deg
	})
	return &CSR{Rows: int32(n), Cols: int32(n), Rowptr: rowptr, Col: col, Val: val}
}

// hashSet is an open-addressing set of int32 keys used by the symbolic
// SpGEMM phase. Capacity is always a power of two. Slots carry an epoch
// stamp instead of a sentinel key, so reset is O(1) rather than a full
// clear of the backing array.
type hashSet struct {
	keys  []int32
	stamp []uint64
	epoch uint64
	cap   int
	size  int
}

func newHashSet(capacity int) *hashSet {
	capacity = nextPow2(capacity)
	h := &hashSet{keys: make([]int32, capacity), stamp: make([]uint64, capacity), cap: capacity}
	h.epoch = 1
	return h
}

func (h *hashSet) reset() {
	h.epoch++
	h.size = 0
}

func (h *hashSet) insert(k int32) {
	if h.size*2 >= h.cap {
		h.grow()
	}
	mask := uint32(h.cap - 1)
	s := (uint32(k) * 2654435761) & mask
	for {
		if h.stamp[s] != h.epoch {
			h.stamp[s] = h.epoch
			h.keys[s] = k
			h.size++
			return
		}
		if h.keys[s] == k {
			return
		}
		s = (s + 1) & mask
	}
}

func (h *hashSet) grow() {
	oldK, oldS, oldE := h.keys, h.stamp, h.epoch
	h.cap *= 2
	h.keys = make([]int32, h.cap)
	h.stamp = make([]uint64, h.cap)
	h.epoch = 1
	h.size = 0
	for i, k := range oldK {
		if oldS[i] == oldE {
			h.insert(k)
		}
	}
}

// hashMap is an open-addressing int32→float64 accumulator used by the
// numeric SpGEMM phase. Like hashSet it uses epoch stamps for O(1) reset;
// resetSized additionally pins the logical capacity to a pure function of
// the requested size, so the slot layout (and hence any iteration order)
// is deterministic regardless of what earlier rows left behind.
type hashMap struct {
	keys  []int32
	vals  []float64
	stamp []uint64
	epoch uint64
	// cap is the logical capacity: a power of two ≤ len(keys). Probing is
	// confined to the first cap slots.
	cap  int
	size int
}

func newHashMap(capacity int) *hashMap {
	capacity = nextPow2(capacity)
	h := &hashMap{
		keys:  make([]int32, capacity),
		vals:  make([]float64, capacity),
		stamp: make([]uint64, capacity),
		cap:   capacity,
	}
	h.epoch = 1
	return h
}

func (h *hashMap) reset() {
	h.epoch++
	h.size = 0
}

// resetSized clears the map and sets the logical capacity to the smallest
// power of two ≥ 2·n (min 16), growing the backing arrays if needed.
func (h *hashMap) resetSized(n int) {
	c := 16
	for c < 2*n {
		c *= 2
	}
	h.cap = c
	if c > len(h.keys) {
		h.keys = make([]int32, c)
		h.vals = make([]float64, c)
		h.stamp = make([]uint64, c)
		h.epoch = 0
	}
	h.epoch++
	h.size = 0
}

// occupied reports whether slot s holds a live entry.
func (h *hashMap) occupied(s int) bool { return h.stamp[s] == h.epoch }

func (h *hashMap) add(k int32, v float64) {
	if h.size*2 >= h.cap {
		h.growMap()
	}
	mask := uint32(h.cap - 1)
	s := (uint32(k) * 2654435761) & mask
	for {
		if h.stamp[s] != h.epoch {
			h.stamp[s] = h.epoch
			h.keys[s] = k
			h.vals[s] = v
			h.size++
			return
		}
		if h.keys[s] == k {
			h.vals[s] += v
			return
		}
		s = (s + 1) & mask
	}
}

func (h *hashMap) growMap() {
	// Always rehash into fresh arrays: the live entries are read out of the
	// old backing while inserts write the new one, so they must not alias.
	oldK, oldV, oldS, oldE, oldC := h.keys, h.vals, h.stamp, h.epoch, h.cap
	c := h.cap * 2
	h.keys = make([]int32, c)
	h.vals = make([]float64, c)
	h.stamp = make([]uint64, c)
	h.cap = c
	h.epoch = 1
	h.size = 0
	for s := 0; s < oldC; s++ {
		if oldS[s] == oldE {
			h.add(oldK[s], oldV[s])
		}
	}
}

func nextPow2(x int) int {
	p := 1
	for p < x {
		p *= 2
	}
	return p
}
