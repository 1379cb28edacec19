package coarsen

import (
	"fmt"
	"sync"
	"sync/atomic"

	"mlcg/internal/graph"
	"mlcg/internal/obs"
	"mlcg/internal/par"
)

// Workspace is the reusable scratch arena of the vertex-centric coarse
// graph builders. One construction level needs O(m) bin storage (f/x),
// O(nc) counters and offsets, and O(p·nc) per-worker histograms; without a
// workspace every level allocates those afresh. Coarsener.Run keeps one
// Workspace for the whole hierarchy, so steady-state construction performs
// (amortized) zero scratch allocations — only the output CSR arrays, which
// escape into the Hierarchy, are freshly allocated per level.
//
// Lifetime rules:
//   - A Workspace may be reused across levels, graphs, and builders, but
//     not concurrently: one Build call owns it exclusively.
//   - Buffers handed out by the getters alias the arena; they are dead as
//     soon as the Build call returns. Builders must never let them escape
//     into the returned graph.
//   - The zero value is not ready; use NewWorkspace.
type Workspace struct {
	// Bin storage for the scatter phases: first-generation bins (binF/binX)
	// and the symmetrize-phase bins (symF/symX).
	binF []int32
	binX []int64
	symF []int32
	symX []int64

	// Per-bin counters and offsets.
	cnt    []int32
	cnt2   []int32
	cEst   []int32
	newCnt []int32
	r      []int64
	r2     []int64

	// Per-worker state: scatter histograms, vertex-weight partials, range
	// boundaries, dedup hash tables and radix-sort scratch.
	hists     [][]int32
	vwgtParts [][]int64
	bounds    []int
	bounds2   []int
	tables    []*weightTable
	sortBufs  []*par.SortScratch

	// Radix-sort builder scratch (global-sort baseline).
	keys64 []uint64
	vals64 []uint64
	offs   []int64

	// Worklist-mapper scratch (mis2fast selection and frontiers).
	mis *mis2Scratch

	// inUse is the single-owner guard: 1 while a Run (or an explicit
	// TryAcquire) holds the workspace. Concurrent acquisition is the bug
	// class a server hits first — two requests sharing scratch silently
	// corrupt each other's coarse graphs — so it fails loudly instead.
	inUse int32
}

// NewWorkspace returns an empty workspace; buffers grow on first use and
// are retained for reuse.
func NewWorkspace() *Workspace { return &Workspace{} }

// tryAcquire claims exclusive use of the workspace, failing with a
// descriptive error if another holder has it.
func (ws *Workspace) tryAcquire() error {
	if !atomic.CompareAndSwapInt32(&ws.inUse, 0, 1) {
		return fmt.Errorf("coarsen: Workspace is already in use by a concurrent Run; " +
			"a workspace is single-owner scratch — give each concurrent Run its own (see WorkspacePool)")
	}
	return nil
}

// release returns the workspace to the idle state.
func (ws *Workspace) release() { atomic.StoreInt32(&ws.inUse, 0) }

// InUse reports whether a Run currently holds the workspace.
func (ws *Workspace) InUse() bool { return atomic.LoadInt32(&ws.inUse) != 0 }

// WorkspacePool recycles workspaces across concurrent Runs — the server's
// substrate for steady-state zero-scratch-allocation builds without
// sharing an arena between in-flight requests. The zero value is ready.
type WorkspacePool struct {
	pool sync.Pool
}

// Get returns an idle workspace, allocating one if the pool is empty.
func (p *WorkspacePool) Get() *Workspace {
	if ws, ok := p.pool.Get().(*Workspace); ok {
		return ws
	}
	return NewWorkspace()
}

// Put returns a workspace to the pool. A workspace still held by a Run is
// dropped instead of pooled, so a misbehaving caller cannot poison the
// pool with scratch another goroutine is actively writing.
func (p *WorkspacePool) Put(ws *Workspace) {
	if ws == nil || ws.InUse() {
		return
	}
	p.pool.Put(ws)
}

// The grow helpers report arena effectiveness to the caller's span: bytes
// served from retained buffers (workspace_bytes_reused) vs. freshly
// allocated (workspace_bytes_alloc). A reuse ratio near 1 in steady state
// is the arena working as designed; allocations recurring past the first
// level mean a buffer is being resized every level.

func growI32(buf *[]int32, n int, span *obs.Span) []int32 {
	if cap(*buf) < n {
		*buf = make([]int32, n)
		span.Add(obs.CtrWSBytesAlloc, int64(n)*4)
	} else {
		span.Add(obs.CtrWSBytesReused, int64(n)*4)
	}
	*buf = (*buf)[:n]
	return *buf
}

func growI64(buf *[]int64, n int, span *obs.Span) []int64 {
	if cap(*buf) < n {
		*buf = make([]int64, n)
		span.Add(obs.CtrWSBytesAlloc, int64(n)*8)
	} else {
		span.Add(obs.CtrWSBytesReused, int64(n)*8)
	}
	*buf = (*buf)[:n]
	return *buf
}

func growU64(buf *[]uint64, n int, span *obs.Span) []uint64 {
	if cap(*buf) < n {
		*buf = make([]uint64, n)
		span.Add(obs.CtrWSBytesAlloc, int64(n)*8)
	} else {
		span.Add(obs.CtrWSBytesReused, int64(n)*8)
	}
	*buf = (*buf)[:n]
	return *buf
}

// histograms returns p zero-filled histograms of nc bins each, counting
// arena bytes on span. Callers own histogram w exclusively while worker w
// runs.
func (ws *Workspace) histograms(p, nc int, span *obs.Span) [][]int32 {
	for len(ws.hists) < p {
		ws.hists = append(ws.hists, nil)
	}
	hs := ws.hists[:p]
	for w := 0; w < p; w++ {
		h := growI32(&ws.hists[w], nc, span)
		for i := range h {
			h[i] = 0
		}
	}
	return hs
}

// weightPartials returns p zero-filled int64 accumulators of nc bins
// each, counting arena bytes on span.
func (ws *Workspace) weightPartials(p, nc int, span *obs.Span) [][]int64 {
	for len(ws.vwgtParts) < p {
		ws.vwgtParts = append(ws.vwgtParts, nil)
	}
	hs := ws.vwgtParts[:p]
	for w := 0; w < p; w++ {
		h := growI64(&ws.vwgtParts[w], nc, span)
		for i := range h {
			h[i] = 0
		}
	}
	return hs
}

// tablesFor returns one dedup hash table per worker. Must be called
// before the parallel section; workers then index the result by worker id.
func (ws *Workspace) tablesFor(p int) []*weightTable {
	for len(ws.tables) < p {
		ws.tables = append(ws.tables, newWeightTable(64))
	}
	return ws.tables[:p]
}

// sortScratchFor returns one radix-sort scratch per worker. Must be called
// before the parallel section; workers then index the result by worker id.
func (ws *Workspace) sortScratchFor(p int) []*par.SortScratch {
	for len(ws.sortBufs) < p {
		ws.sortBufs = append(ws.sortBufs, &par.SortScratch{})
	}
	return ws.sortBufs[:p]
}

// WorkspaceMapper is the mapper-side twin of Builder.BuildWith: mappers
// that keep their selection state and frontier buffers in the arena
// implement it and Coarsener.Run routes Map calls through MapWith so one
// hierarchy shares one arena across both phases of every level.
type WorkspaceMapper interface {
	Mapper
	// MapWith is Map with explicit scratch; ws must be non-nil.
	MapWith(ws *Workspace, g *graph.Graph, seed uint64, ex par.Exec) (*Mapping, error)
}

// mis2Scratch is the retained scratch of the mis2fast worklist kernel: the
// per-vertex selection arrays, the epoch-stamped claim marks that dedup
// candidate lists, and the per-worker frontier buffers with their merged
// flat lists. All buffers are arena-owned and dead once MapWith returns
// (the output mapping array is allocated fresh — it escapes).
type mis2Scratch struct {
	key   []uint64
	state []int32
	t1    []int32
	near  []int32

	// mark[v] holds the last epoch that claimed v; claimEpoch CAS-bumps it
	// so each (epoch, vertex) pair is claimed by exactly one worker. The
	// epoch survives across levels and graphs — stale marks are always
	// smaller than a freshly issued epoch.
	mark  []int32
	epoch int32

	bufs [][]int32 // per-worker append buffers (worker w owns bufs[w])
	cnt  []int32   // per-worker counts / exclusive offsets for the merge

	// Merged flat frontier lists, reused round over round.
	f1, in, out []int32

	// roots accumulates every MIS member across rounds (append-only during
	// one selection); the fused aggregation scatters from it.
	roots []int32
}

// mis2Scratch returns the arena's worklist-mapper scratch sized for an
// n-vertex graph and p workers, counting arena bytes on span.
func (ws *Workspace) mis2Scratch(n, p int, span *obs.Span) *mis2Scratch {
	if ws.mis == nil {
		ws.mis = &mis2Scratch{}
	}
	s := ws.mis
	s.key = growU64(&s.key, n, span)
	s.state = growI32(&s.state, n, span)
	s.t1 = growI32(&s.t1, n, span)
	s.near = growI32(&s.near, n, span)
	// The claim marks must be strictly below any future epoch. Reused
	// buffers only ever hold previously issued epochs, so they are fine
	// as-is; a freshly grown buffer is zero-filled and fine too. Guard the
	// (never reached in practice) epoch wrap by rezeroing.
	if s.epoch > (1<<31)-2-int32(64) {
		s.epoch = 0
		s.mark = nil
	}
	s.mark = growI32(&s.mark, n, span)
	for len(s.bufs) < p {
		s.bufs = append(s.bufs, nil)
	}
	s.cnt = growI32(&s.cnt, p, span)
	return s
}

// resetBufs truncates the first p per-worker buffers for a new fill phase.
func (s *mis2Scratch) resetBufs(p int) {
	for w := 0; w < p; w++ {
		s.bufs[w] = s.bufs[w][:0]
	}
}

// nextEpoch issues a fresh claim epoch (strictly larger than every mark).
func (s *mis2Scratch) nextEpoch() int32 {
	s.epoch++
	return s.epoch
}

// claimEpoch claims vertex v for the given epoch; exactly one caller per
// (epoch, v) pair wins. Marks only grow, so a load-then-CAS loop suffices.
func (s *mis2Scratch) claimEpoch(v, epoch int32) bool {
	for {
		old := atomic.LoadInt32(&s.mark[v])
		if old >= epoch {
			return false
		}
		if atomic.CompareAndSwapInt32(&s.mark[v], old, epoch) {
			return true
		}
	}
}

// mergeBufs concatenates the first ex.P per-worker buffers into dst (grown
// in the arena) in worker order, using an exclusive scan over the
// per-worker counts — the same histogram-merge discipline as the
// builders, no atomics. The returned slice aliases dst's backing array.
func (s *mis2Scratch) mergeBufs(dst *[]int32, ex par.Exec) []int32 {
	p := ex.P
	cnt := s.cnt[:p]
	for w := 0; w < p; w++ {
		cnt[w] = int32(len(s.bufs[w]))
	}
	total := par.ExclusiveScanInt32(cnt, cnt, par.Exec{P: 1})
	out := growI32(dst, int(total), ex.Span)
	if total < 1<<13 {
		// Small merges (the common worklist tail) are cheaper on one core
		// than p goroutine spawns.
		for w := 0; w < p; w++ {
			copy(out[cnt[w]:], s.bufs[w])
		}
		return out
	}
	par.For(p, ex, func(_, lo, hi int) {
		for w := lo; w < hi; w++ {
			copy(out[cnt[w]:], s.bufs[w])
		}
	})
	return out
}
