package obs

import (
	"math/bits"
	"math/rand/v2"
	"sync/atomic"
	"time"
)

// Latency histograms.
//
// A Histogram is a fixed set of power-of-two duration buckets with
// per-worker shards, designed for the serving hot path: Observe is
// lock-free and allocation-free (one atomic add per field, shard picked
// via the runtime's per-thread RNG so concurrent recorders scatter across
// cache lines without coordination),
// and the disabled form follows the package's counter discipline — a nil
// *Histogram is the "off" histogram, and Observe on nil is a single nil
// check, so instrumented paths cost nothing when telemetry is not wanted.
//
// Buckets are fixed at compile time: upper bounds 2^i nanoseconds for
// i = histMinShift..histMinShift+histFinite-1 (1.024µs up to ~17.2s), plus
// a terminal overflow bucket exported as le="+Inf". Fixed power-of-two
// bounds keep the record path branch-free (one bits.Len64), make shard
// merging a flat array sum, and are exactly representable as floats, so
// the Prometheus `le` label values round-trip without drift.

const (
	// histMinShift is the exponent of the first bucket bound: durations up
	// to 2^histMinShift ns (1.024µs) land in bucket 0.
	histMinShift = 10
	// histFinite is the number of finite bucket bounds (2^10..2^34 ns).
	histFinite = 25
	// HistBuckets is the total bucket count including the +Inf bucket.
	HistBuckets = histFinite + 1
	// histShards is the number of independently updated count arrays.
	// Sixteen shards keep concurrent request goroutines off each other's
	// cache lines at any realistic handler parallelism.
	histShards = 16
)

// histShard is one worker-local slice of the histogram. The pad rounds the
// struct to a multiple of the cache line size so adjacent shards never
// share a line.
type histShard struct {
	counts [HistBuckets]int64 // atomic; non-cumulative per-bucket counts
	sum    int64              // atomic; total observed nanoseconds
	_      [64 - (HistBuckets+1)*8%64]byte
}

// Histogram is a lock-free fixed-bucket latency histogram. Create with
// NewHistogram; a nil *Histogram is valid and records nothing (the
// disabled path). All methods are safe for concurrent use.
type Histogram struct {
	name   string
	shards [histShards]histShard
}

// NewHistogram returns an empty histogram. The name is carried for
// exporters; it is not registered anywhere — the owner decides where and
// whether the histogram is exposed.
func NewHistogram(name string) *Histogram {
	return &Histogram{name: name}
}

// Name returns the histogram's name ("" on nil).
func (h *Histogram) Name() string {
	if h == nil {
		return ""
	}
	return h.name
}

// histBucketIndex maps a non-negative duration in nanoseconds to its
// bucket: the smallest i with ns <= 2^(histMinShift+i), or the overflow
// bucket.
func histBucketIndex(ns int64) int {
	if ns <= 1<<histMinShift {
		return 0
	}
	idx := bits.Len64(uint64(ns-1)) - histMinShift
	if idx >= histFinite {
		return histFinite
	}
	return idx
}

// Observe records one duration. Nil-safe, lock-free, allocation-free:
// shard selection by the runtime RNG plus two atomic adds. Negative
// durations (clock steps) are clamped to zero rather than dropped, so
// Count always equals the number of Observe calls.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	// rand/v2's global Uint64 reads per-M state (no lock, no alloc), so
	// concurrent observers spread over shards instead of serializing on
	// one bucket's cache line.
	sh := &h.shards[rand.Uint64()%histShards]
	atomic.AddInt64(&sh.counts[histBucketIndex(ns)], 1)
	atomic.AddInt64(&sh.sum, ns)
}

// HistSnapshot is a merged point-in-time view of a histogram: per-bucket
// (non-cumulative) counts, total count, and the sum of observed time.
// Exporters cumulate the buckets themselves (Prometheus _bucket series
// are cumulative).
type HistSnapshot struct {
	Count   int64
	Sum     time.Duration
	Buckets [HistBuckets]int64
}

// Snapshot merges the shards into one consistent-enough view (each field
// is read atomically; a concurrent Observe may straddle the merge, which
// is fine for telemetry). Nil-safe: returns the zero snapshot.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	if h == nil {
		return s
	}
	var sum int64
	for i := range h.shards {
		sh := &h.shards[i]
		for b := 0; b < HistBuckets; b++ {
			s.Buckets[b] += atomic.LoadInt64(&sh.counts[b])
		}
		sum += atomic.LoadInt64(&sh.sum)
	}
	for _, c := range s.Buckets {
		s.Count += c
	}
	s.Sum = time.Duration(sum)
	return s
}

// HistUpperBounds returns the finite bucket upper bounds in seconds, in
// increasing order. The exporter appends the +Inf bucket itself.
func HistUpperBounds() []float64 {
	out := make([]float64, histFinite)
	for i := range out {
		out[i] = float64(int64(1)<<(histMinShift+i)) / 1e9
	}
	return out
}
