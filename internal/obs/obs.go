package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Counter enumerates the named hot-path event counters. The set is a
// small dense enum so recording is an indexed atomic add, not a map
// lookup.
type Counter uint8

const (
	// CtrCASRetry counts failed compare-and-swap attempts in the
	// atomic-min reservation rounds (HEC/HEM/two-hop) and the canonical
	// renumber scatter — the direct measure of reservation contention.
	CtrCASRetry Counter = iota
	// CtrHashProbe counts slot probes of the epoch-stamped dedup hash
	// tables (one per insert plus one per collision step).
	CtrHashProbe
	// CtrHashCollision counts probe steps beyond the home slot — the
	// open-addressing displacement the paper's hash-vs-sort tradeoff
	// hinges on.
	CtrHashCollision
	// CtrRadixPass counts executed digit passes of the parallel LSD radix
	// sort (skipped constant digits are not counted).
	CtrRadixPass
	// CtrWSBytesAlloc counts bytes freshly allocated by the construction
	// workspace arena.
	CtrWSBytesAlloc
	// CtrWSBytesReused counts bytes served by the workspace arena from
	// retained buffers without allocating.
	CtrWSBytesReused
	// CtrReserve counts reservation operations issued in deterministic
	// reservation rounds.
	CtrReserve
	// CtrCommit counts reservation operations that committed.
	CtrCommit

	// The construct_policy counters record the adaptive construction
	// policy's per-level decisions: one CtrAuto<Builder> increment per
	// level dispatched to that builder. Together they make the policy's
	// behavior visible in traces, metrics dumps, and bench baselines
	// without new plumbing.
	CtrAutoSort
	CtrAutoHash
	CtrAutoSpGEMM
	CtrAutoGlobalSort

	// CtrMIS2FastRounds counts selection rounds of the worklist-driven
	// distance-2 MIS kernel (mis2fast); CtrMIS2FastFrontier accumulates the
	// per-round worklist sizes (recompute frontier + newly-in + newly-out
	// vertices), the direct measure of how much work the frontier scheme
	// avoids versus full resweeps.
	CtrMIS2FastRounds
	CtrMIS2FastFrontier

	// The embed counters instrument the multilevel SGD trainer
	// (internal/embed): CtrEmbedSGDSteps counts positive-sample SGD steps
	// (one per training edge per epoch), CtrEmbedNegatives counts drawn
	// negative samples, and CtrEmbedProjRows counts embedding rows copied
	// by hierarchy projection (coarse level -> fine level).
	CtrEmbedSGDSteps
	CtrEmbedNegatives
	CtrEmbedProjRows

	// The spectral counters instrument the power-iteration eigensolvers
	// (internal/partition Fiedler and FiedlerK): CtrFiedlerIters counts
	// iterations run, CtrSpMVNNZ counts the Laplacian nonzeros their
	// matrix-free multiplies touch, 2m+n per multiply, and
	// CtrFiedlerCapped counts calls that stopped at MaxIter without
	// meeting the tolerance (an iteration count of MaxIter alone does not
	// tell, since a solve can converge on its last iteration). All three
	// are exact.
	CtrFiedlerIters
	CtrSpMVNNZ
	CtrFiedlerCapped

	// The FM counters instrument Fiduccia–Mattheyses refinement
	// (internal/partition RefineFM): CtrFMPasses counts passes run,
	// CtrFMMoves counts every vertex move a pass makes, including the
	// ones its rollback undoes, and CtrFMRollbacks counts the undone
	// moves. All three are exact.
	CtrFMPasses
	CtrFMMoves
	CtrFMRollbacks

	numCounters
)

// counterNames maps Counter values to their stable exported names (used by
// the metrics dump, the JSON trace args, and LevelStats.Counters keys).
var counterNames = [numCounters]string{
	CtrCASRetry:      "cas_retries",
	CtrHashProbe:     "hash_probes",
	CtrHashCollision: "hash_collisions",
	CtrRadixPass:     "radix_passes",
	CtrWSBytesAlloc:  "workspace_bytes_alloc",
	CtrWSBytesReused: "workspace_bytes_reused",
	CtrReserve:       "reservations",
	CtrCommit:        "commits",

	CtrAutoSort:       "construct_auto_sort",
	CtrAutoHash:       "construct_auto_hash",
	CtrAutoSpGEMM:     "construct_auto_spgemm",
	CtrAutoGlobalSort: "construct_auto_globalsort",

	CtrMIS2FastRounds:   "mis2fast_rounds",
	CtrMIS2FastFrontier: "mis2fast_frontier",

	CtrEmbedSGDSteps:  "embed_sgd_steps",
	CtrEmbedNegatives: "embed_negatives",
	CtrEmbedProjRows:  "embed_proj_rows",

	CtrFiedlerIters:  "fiedler_iters",
	CtrSpMVNNZ:       "spmv_nnz",
	CtrFiedlerCapped: "fiedler_capped",

	CtrFMPasses:    "fm_passes",
	CtrFMMoves:     "fm_moves",
	CtrFMRollbacks: "fm_rollbacks",
}

// String returns the stable metric name of c.
func (c Counter) String() string {
	if int(c) < len(counterNames) {
		return counterNames[c]
	}
	return "unknown"
}

// maxBusySlots bounds the per-span busy-time array. Worker ids beyond the
// bound fold into the last slot; with the library's GOMAXPROCS-capped
// worker counts this is never hit on real machines.
const maxBusySlots = 64

// Span is one node of the trace tree. All methods are safe on a nil
// receiver (the disabled path) and return promptly.
type Span struct {
	name   string
	parent *Span
	trace  *Trace

	start time.Duration // offset from trace epoch
	dur   int64         // nanoseconds, 0 while open (atomic; set once by End)

	mu       sync.Mutex
	children []*Span

	// busy[w] accumulates worker w's busy nanoseconds across every
	// parallel loop whose Exec carried this span.
	busy [maxBusySlots]int64
	// workers is the high-water worker count observed (atomic max).
	workers int32

	ctr [numCounters]int64
}

// Trace owns one trace tree. NewTrace creates one for explicit use: the
// caller hands Trace.Root (or a span below it) to the work it traces, and
// any number of such traces run concurrently without sharing state.
// StartTrace creates the process's single tool trace, the one the
// package-level StartKernel, Done and Ambient act on. Finish either kind
// with Stop, then export with WriteTrace/WriteMetrics.
type Trace struct {
	Root  *Span
	epoch time.Time

	// cur is the innermost open span of the tool trace's span stack
	// (StartKernel/Done). Only the goroutine that started the tool trace
	// pushes and pops it; an explicit trace's cur stays at Root.
	cur     atomic.Pointer[Span]
	stopped atomic.Bool
}

// tool is the running tool trace, or nil. Ambient is one load of it.
var tool atomic.Pointer[Trace]

// Ambient returns the innermost open span of the tool trace, or nil when
// no tool trace is running. Public entry points read it once and pass the
// result down; library code below them never looks it up again.
func Ambient() *Span {
	t := tool.Load()
	if t == nil {
		return nil
	}
	return t.cur.Load()
}

// NewTrace creates a trace with an open root span. It is not the tool
// trace: nothing reaches it unless its spans are passed down explicitly
// (directly, or through a context with NewContext).
func NewTrace(name string) *Trace {
	t := &Trace{epoch: time.Now()}
	t.Root = &Span{name: name, trace: t}
	t.cur.Store(t.Root)
	return t
}

// StartTrace creates the process's tool trace, whose root span has the
// given name, and returns it. It returns nil while another tool trace is
// running. A tool trace is for a single-goroutine tool (a CLI run, a
// benchmark recording); concurrent traced work uses NewTrace.
func StartTrace(name string) *Trace {
	t := NewTrace(name)
	if !tool.CompareAndSwap(nil, t) {
		return nil
	}
	return t
}

// Stop ends every still-open span (innermost first) and, for the tool
// trace, lets a new one start. Safe on a nil receiver and idempotent.
func (t *Trace) Stop() {
	if t == nil || !t.stopped.CompareAndSwap(false, true) {
		return
	}
	for s := t.cur.Load(); s != nil; s = s.parent {
		s.End()
	}
	t.cur.Store(nil)
	tool.CompareAndSwap(t, nil)
}

// now returns the offset from the trace epoch.
func (t *Trace) now() time.Duration { return time.Since(t.epoch) }

// StartKernel opens a child of the tool trace's innermost span, makes it
// the new innermost span, and returns it. Returns nil at the cost of one
// atomic load when no tool trace is running. Only the tool's own goroutine
// calls it; the matching Done pops it.
func StartKernel(name string) *Span {
	t := tool.Load()
	if t == nil {
		return nil
	}
	a := t.cur.Load()
	if a == nil {
		return nil // trace already stopped
	}
	s := a.Child(name)
	t.cur.Store(s)
	return s
}

// Done ends the span and restores its parent as the innermost span of its
// trace's stack. The inverse of StartKernel; safe on nil.
func (s *Span) Done() {
	if s == nil {
		return
	}
	s.End()
	if s.trace.cur.Load() == s {
		s.trace.cur.Store(s.parent)
	}
}

// Trace returns the trace the span belongs to (nil on nil).
func (s *Span) Trace() *Trace {
	if s == nil {
		return nil
	}
	return s.trace
}

// Child creates and opens a child span without touching the tool trace's
// span stack: the way kernels open their spans. Safe to call concurrently
// from worker goroutines and on nil (returns nil without allocating).
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{name: name, parent: s, trace: s.trace, start: s.trace.now()}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// End closes the span, fixing its wall duration. Idempotent; safe on nil.
func (s *Span) End() {
	if s == nil {
		return
	}
	d := int64(s.trace.now() - s.start)
	if d < 1 {
		d = 1 // keep zero-width spans visible and mark the span closed
	}
	atomic.CompareAndSwapInt64(&s.dur, 0, d)
}

// Name returns the span's name ("" on nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Add increments counter c by n on this span. Safe on nil and from any
// goroutine. Zero deltas are dropped without touching memory.
func (s *Span) Add(c Counter, n int64) {
	if s == nil || n == 0 {
		return
	}
	atomic.AddInt64(&s.ctr[c], n)
}

// BusyAdd accumulates d of busy time for worker w on this span. Safe on
// nil and from any goroutine; worker ids beyond the slot bound fold into
// the last slot.
func (s *Span) BusyAdd(w int, d time.Duration) {
	if s == nil {
		return
	}
	if w >= maxBusySlots {
		w = maxBusySlots - 1
	}
	atomic.AddInt64(&s.busy[w], int64(d))
	for {
		cur := atomic.LoadInt32(&s.workers)
		if int32(w) < cur {
			break
		}
		if atomic.CompareAndSwapInt32(&s.workers, cur, int32(w)+1) {
			break
		}
	}
}

// Wall returns the span's wall-clock duration (0 while open or on nil).
func (s *Span) Wall() time.Duration {
	if s == nil {
		return 0
	}
	return time.Duration(atomic.LoadInt64(&s.dur))
}

// Busy returns the per-worker busy times recorded directly on this span
// (not descendants), trimmed to the observed worker count.
func (s *Span) Busy() []time.Duration {
	if s == nil {
		return nil
	}
	w := int(atomic.LoadInt32(&s.workers))
	out := make([]time.Duration, w)
	for i := 0; i < w; i++ {
		out[i] = time.Duration(atomic.LoadInt64(&s.busy[i]))
	}
	return out
}

// Imbalance returns the load-imbalance factor p·max(busy)/Σbusy of the
// busy time recorded directly on this span: 1.0 is perfect balance, p is
// one worker doing everything. Returns 0 when fewer than two workers
// reported.
func (s *Span) Imbalance() float64 {
	busy := s.Busy()
	if len(busy) < 2 {
		return 0
	}
	var max, sum time.Duration
	for _, b := range busy {
		sum += b
		if b > max {
			max = b
		}
	}
	if sum == 0 {
		return 0
	}
	return float64(len(busy)) * float64(max) / float64(sum)
}

// Children returns a snapshot of the span's child spans in creation
// order.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	out := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	return out
}

// Counters returns the subtree-aggregated counter totals by stable name,
// omitting zero counters. Nil-safe (returns nil).
func (s *Span) Counters() map[string]int64 {
	if s == nil {
		return nil
	}
	var totals [numCounters]int64
	s.addTotals(&totals)
	out := make(map[string]int64)
	for c, v := range totals {
		if v != 0 {
			out[counterNames[c]] = v
		}
	}
	return out
}

// CounterTotals returns the subtree-aggregated totals as a dense array
// indexed by Counter (exporter form; includes zeros).
func (s *Span) CounterTotals() []int64 {
	totals := make([]int64, numCounters)
	if s != nil {
		var t [numCounters]int64
		s.addTotals(&t)
		copy(totals, t[:])
	}
	return totals
}

func (s *Span) addTotals(t *[numCounters]int64) {
	for c := range s.ctr {
		t[c] += atomic.LoadInt64(&s.ctr[c])
	}
	for _, ch := range s.Children() {
		ch.addTotals(t)
	}
}

// ownCounters returns the counters recorded directly on this span.
func (s *Span) ownCounters() [numCounters]int64 {
	var out [numCounters]int64
	for c := range s.ctr {
		out[c] = atomic.LoadInt64(&s.ctr[c])
	}
	return out
}
