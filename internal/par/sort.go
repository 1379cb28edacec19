package par

// Parallel LSD radix sort on (uint64 key, uint64 value) pairs. This is the
// workhorse behind the sort-based parallel random permutation (Algorithm 4,
// line 1), the global-sort coarse-graph construction baseline, and the
// segmented sorts used by sort-based deduplication on long adjacency lists.

import "mlcg/internal/obs"

const radixBits = 8
const radixBuckets = 1 << radixBits

// RadixSortPairs sorts keys ascending, permuting vals alongside. Both
// slices must have the same length. The sort is stable per digit pass
// (standard LSD), so overall it is a stable sort by key.
func RadixSortPairs(keys, vals []uint64, ex Exec) {
	n := len(keys)
	if len(vals) != n {
		panic("par: RadixSortPairs slice length mismatch")
	}
	if n < 2 {
		return
	}
	p := Workers(ex.P, n)
	if n < 1<<14 || p == 1 {
		ex.Span.Add(obs.CtrRadixPass, radixSortPairsSeqScratch(keys, vals, make([]uint64, n), make([]uint64, n)))
		return
	}

	// Bits that actually differ across keys let us skip constant digits.
	var orAll, andAll uint64 = 0, ^uint64(0)
	type mm struct{ or, and uint64 }
	m := Reduce(n, ex, mm{0, ^uint64(0)},
		func(acc mm, i int) mm { return mm{acc.or | keys[i], acc.and & keys[i]} },
		func(a, b mm) mm { return mm{a.or | b.or, a.and & b.and} })
	orAll, andAll = m.or, m.and
	diff := orAll ^ andAll

	tmpK := make([]uint64, n)
	tmpV := make([]uint64, n)
	hist := make([]int64, p*radixBuckets)
	offs := make([]int64, p*radixBuckets)

	srcK, srcV := keys, vals
	dstK, dstV := tmpK, tmpV
	var passes int64
	for shift := 0; shift < 64; shift += radixBits {
		if (diff>>shift)&(radixBuckets-1) == 0 {
			continue
		}
		passes++
		for i := range hist {
			hist[i] = 0
		}
		For(n, ex, func(w, lo, hi int) {
			h := hist[w*radixBuckets : (w+1)*radixBuckets]
			for i := lo; i < hi; i++ {
				h[(srcK[i]>>shift)&(radixBuckets-1)]++
			}
		})
		// Offsets: bucket-major over workers so the pass stays stable.
		var running int64
		for b := 0; b < radixBuckets; b++ {
			for w := 0; w < p; w++ {
				offs[w*radixBuckets+b] = running
				running += hist[w*radixBuckets+b]
			}
		}
		For(n, ex, func(w, lo, hi int) {
			o := offs[w*radixBuckets : (w+1)*radixBuckets]
			for i := lo; i < hi; i++ {
				b := (srcK[i] >> shift) & (radixBuckets - 1)
				pos := o[b]
				o[b] = pos + 1
				dstK[pos] = srcK[i]
				dstV[pos] = srcV[i]
			}
		})
		srcK, dstK = dstK, srcK
		srcV, dstV = dstV, srcV
	}
	ex.Span.Add(obs.CtrRadixPass, passes)
	if &srcK[0] != &keys[0] {
		Copy(keys, srcK, ex)
		Copy(vals, srcV, ex)
	}
}

// radixSortPairsSeqScratch is the sequential LSD radix sort used for small
// inputs and as the p==1 path, on caller-provided ping-pong buffers (each
// at least len(keys) long). It returns the digit passes it ran and leaves
// reporting them to the caller.
func radixSortPairsSeqScratch(keys, vals, tmpK, tmpV []uint64) int64 {
	n := len(keys)
	var orAll uint64
	andAll := ^uint64(0)
	for _, k := range keys {
		orAll |= k
		andAll &= k
	}
	diff := orAll ^ andAll
	tmpK = tmpK[:n]
	tmpV = tmpV[:n]
	var hist [radixBuckets]int64
	srcK, srcV := keys, vals
	dstK, dstV := tmpK, tmpV
	var passes int64
	for shift := 0; shift < 64; shift += radixBits {
		if (diff>>shift)&(radixBuckets-1) == 0 {
			continue
		}
		passes++
		for i := range hist {
			hist[i] = 0
		}
		for i := 0; i < n; i++ {
			hist[(srcK[i]>>shift)&(radixBuckets-1)]++
		}
		var running int64
		for b := 0; b < radixBuckets; b++ {
			c := hist[b]
			hist[b] = running
			running += c
		}
		for i := 0; i < n; i++ {
			b := (srcK[i] >> shift) & (radixBuckets - 1)
			pos := hist[b]
			hist[b] = pos + 1
			dstK[pos] = srcK[i]
			dstV[pos] = srcV[i]
		}
		srcK, dstK = dstK, srcK
		srcV, dstV = dstV, srcV
	}
	if &srcK[0] != &keys[0] {
		copy(keys, srcK)
		copy(vals, srcV)
	}
	return passes
}

// SortPairsInt32 sorts a short (key int32, weight int64) list ascending by
// key in place using insertion sort below a threshold and radix sort above.
// This is the per-vertex sorter used by sort-based deduplication
// (DEDUPWITHWTS in Algorithm 6); adjacency lists are mostly short, so the
// insertion-sort fast path matters. The sort is sequential; ex.Span is
// where the radix path counts its digit passes.
func SortPairsInt32(keys []int32, wgts []int64, ex Exec) {
	n := len(keys)
	if n <= 48 {
		insertionSortPairs(keys, wgts)
		return
	}
	var s SortScratch
	sortPairsInt32Radix(keys, wgts, &s)
	ex.Span.Add(obs.CtrRadixPass, s.TakePasses())
}

// insertionSortPairs is the short-list path of SortPairsInt32.
func insertionSortPairs(keys []int32, wgts []int64) {
	for i := 1; i < len(keys); i++ {
		k, w := keys[i], wgts[i]
		j := i - 1
		for j >= 0 && keys[j] > k {
			keys[j+1], wgts[j+1] = keys[j], wgts[j]
			j--
		}
		keys[j+1], wgts[j+1] = k, w
	}
}

// SortScratch holds the reusable buffers of SortPairsInt32Scratch and
// counts the radix digit passes its sorts run. The zero value is ready;
// buffers grow on demand and are retained.
type SortScratch struct {
	k64, v64, tmpK, tmpV []uint64
	passes               int64
}

// TakePasses returns the radix digit passes run since the last call and
// resets the count. Sorting many segments with one scratch and flushing
// TakePasses once per chunk keeps the radix_passes counter exact without
// an obs call per segment.
func (s *SortScratch) TakePasses() int64 {
	n := s.passes
	s.passes = 0
	return n
}

func (s *SortScratch) ensure(n int) {
	if cap(s.k64) < n {
		s.k64 = make([]uint64, n)
		s.v64 = make([]uint64, n)
		s.tmpK = make([]uint64, n)
		s.tmpV = make([]uint64, n)
	}
}

// SortPairsInt32Scratch is SortPairsInt32 with caller-provided scratch,
// for callers that sort many segments in a loop and want zero steady-state
// allocations. The radix passes add to the scratch's count instead of a
// span, so it needs no Exec; the caller flushes TakePasses. The scratch
// must not be shared between concurrent callers.
func SortPairsInt32Scratch(keys []int32, wgts []int64, s *SortScratch) {
	if len(keys) <= 48 {
		insertionSortPairs(keys, wgts)
		return
	}
	sortPairsInt32Radix(keys, wgts, s)
}

func sortPairsInt32Radix(keys []int32, wgts []int64, s *SortScratch) {
	n := len(keys)
	s.ensure(n)
	k64 := s.k64[:n]
	v64 := s.v64[:n]
	for i := 0; i < n; i++ {
		// Flip the sign bit so negative keys order below non-negative
		// ones under the unsigned radix comparison.
		k64[i] = uint64(uint32(keys[i]) ^ 0x80000000)
		v64[i] = uint64(wgts[i])
	}
	s.passes += radixSortPairsSeqScratch(k64, v64, s.tmpK, s.tmpV)
	for i := 0; i < n; i++ {
		keys[i] = int32(uint32(k64[i]) ^ 0x80000000)
		wgts[i] = int64(v64[i])
	}
}

// RandPerm returns a uniformly pseudo-random permutation of [0, n) computed
// the way the paper's PARGENPERM does it: assign each index a random 64-bit
// key and sort indices by key in parallel. Ties are broken by index via the
// composite (key<<~, idx) ordering, so the result is always a permutation.
func RandPerm(n int, seed uint64, ex Exec) []int32 {
	perm := make([]int32, n)
	if n == 0 {
		return perm
	}
	keys := make([]uint64, n)
	vals := make([]uint64, n)
	ForEach(n, ex, func(i int) {
		keys[i] = Mix64(seed ^ uint64(i)*0x9e3779b97f4a7c15)
		vals[i] = uint64(i)
	})
	RadixSortPairs(keys, vals, ex)
	ForEach(n, ex, func(i int) {
		perm[i] = int32(vals[i])
	})
	return perm
}

// InversePerm computes the inverse permutation: out[perm[i]] = i
// (Algorithm 5, lines 3-4).
func InversePerm(perm []int32, ex Exec) []int32 {
	out := make([]int32, len(perm))
	ForEach(len(perm), ex, func(i int) {
		out[perm[i]] = int32(i)
	})
	return out
}
