package embed

import (
	"fmt"
	"math"

	"mlcg/internal/graph"
	"mlcg/internal/obs"
	"mlcg/internal/par"
)

// maxChunkTasks caps the number of SGD tasks per two-phase round. Within
// a chunk all gradient computations read the same frozen parameters
// (minibatch semantics); across chunks updates are visible. 1024 tasks at
// the default 5 negatives and dim 32 keep the scratch near 300 KiB while
// amortizing the two parallel-region spawns per round.
const maxChunkTasks = 1024

// minChunkTasks floors the chunk size so tiny graphs still amortize the
// round structure.
const minChunkTasks = 8

// inlineTasks is the round size below which both phases run on the
// calling goroutine: on coarse levels a round is tens of microseconds of
// work, too little to pay for waking p workers twice. No value depends on
// how a round is split, so this changes time only. On a 2-core host at
// the default dim and negatives, 256 beat never inlining in 10 of 10
// pairs of the embed-rgg pipeline (median 1.10 against 1.23 s).
const inlineTasks = 256

// chunkFor sizes the two-phase round for a level with n vertices. Frozen
// parameters mean a row touched k times in one chunk takes k same-direction
// steps with no sigmoid feedback between them — an effective learning rate
// of k*lr. Capping the chunk near n/rowsPerTask keeps the expected touches
// per row around one, which restores sequential-SGD's self-damping and
// keeps small coarse graphs (where one epoch would otherwise be a single
// frozen chunk) from diverging. Depends only on (n, rpt), never on the
// worker count, so determinism across p is untouched.
func chunkFor(n, rpt int) int {
	c := n / rpt
	if c < minChunkTasks {
		c = minChunkTasks
	}
	if c > maxChunkTasks {
		c = maxChunkTasks
	}
	return c
}

// negResampleTries bounds the rejection loop when a drawn negative equals
// an endpoint of the positive pair. After the bound the sample is accepted
// anyway (a bounded deterministic loop; occasional true-edge negatives are
// ordinary sampling noise).
const negResampleTries = 8

// workspace holds every scratch buffer of the trainer so steady-state
// epochs allocate nothing (the coarsen.Workspace discipline applied to a
// training loop). Buffers grow monotonically and are reused across levels.
type workspace struct {
	srcs, dsts []int32   // training edges in CSR discovery order, len m
	perm       []int32   // per-level pseudo-random edge order, len m
	cum        []float64 // inclusive prefix of deg^0.75, len n (negative table)
	total      float64   // cum[n-1]
	guide      []int32   // 2^k+1 bucket starts into cum, 2^k ≥ n (sampleNeg)
	guideShift uint      // 53-k: a draw's top k bits pick its bucket
	rows       []int32   // chunk scratch: row id per slot, rowsPerTask per task
	delta      []float32 // chunk scratch: per task du, the snapshot of eu, one gradient per partner
	negDrawn   []int64   // per-worker drawn-negative counts, stride padded
}

func newWorkspace() *workspace { return &workspace{} }

// negStride pads the per-worker counters to separate cache lines.
const negStride = 8

func growI32(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

func growF32(buf []float32, n int) []float32 {
	if cap(buf) < n {
		return make([]float32, n)
	}
	return buf[:n]
}

func growF64(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

func growI64(buf []int64, n int) []int64 {
	if cap(buf) < n {
		return make([]int64, n)
	}
	return buf[:n]
}

// prepareLevel extracts the level's edge list, builds the degree^0.75
// negative-sampling table and its guide, and fixes the level's edge order.
// The order is drawn once per level (epochs vary their negatives, not
// their edge order), keyed by levelKey so it is identical at every worker
// count.
func (ws *workspace) prepareLevel(g *graph.Graph, levelKey uint64, ex par.Exec) {
	n, m := g.N(), int(g.M())
	ws.srcs = growI32(ws.srcs, m)
	ws.dsts = growI32(ws.dsts, m)
	e := 0
	for u := int32(0); u < g.NumV; u++ {
		adj, _ := g.Neighbors(u)
		for _, v := range adj {
			if v > u {
				ws.srcs[e], ws.dsts[e] = u, v
				e++
			}
		}
	}
	ws.cum = growF64(ws.cum, n)
	var running float64
	for u := 0; u < n; u++ {
		d := float64(g.Xadj[u+1] - g.Xadj[u])
		running += math.Pow(d, 0.75)
		ws.cum[u] = running
	}
	ws.total = running
	ws.buildGuide()
	if m > 0 {
		ws.perm = par.RandPerm(m, par.Mix64(levelKey^0x7065726d), ex)
	} else {
		ws.perm = ws.perm[:0]
	}
}

// buildGuide splits the draw range [0, 2^53) into 2^k ≥ n equal buckets.
// guide[b] is the first index whose cum reaches fl(b/2^k·total), the
// smallest value a draw in bucket b can scale to; guide[2^k] is that
// index for total itself. cum is non-decreasing and rounding is monotone,
// so every draw of bucket b has its answer in [guide[b], guide[b+1]].
func (ws *workspace) buildGuide() {
	n := len(ws.cum)
	k := uint(0)
	for 1<<k < n {
		k++
	}
	ws.guideShift = 53 - k
	ws.guide = growI32(ws.guide, 1<<k+1)
	i := 0
	for b := range ws.guide {
		lb := float64(b) / float64(uint64(1)<<k) * ws.total
		for i < n-1 && ws.cum[i] < lb {
			i++
		}
		ws.guide[b] = int32(i)
	}
}

// sampleNeg draws one vertex from the deg^0.75 distribution: the first
// index whose cum reaches the scaled draw r, exactly the index
// sort.SearchFloat64s returns on the whole table. The draw's bucket
// bounds the binary search to the few entries between two guide values.
func (ws *workspace) sampleNeg(state *uint64) int32 {
	return ws.lookup(par.SplitMix64(state) >> 11)
}

// lookup is sampleNeg for the 53-bit draw d.
func (ws *workspace) lookup(d uint64) int32 {
	r := float64(d) / (1 << 53) * ws.total
	b := d >> ws.guideShift
	lo, hi := int(ws.guide[b]), int(ws.guide[b+1])
	cum := ws.cum
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if cum[mid] < r {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return int32(lo)
}

// trainer is the per-level SGD state. Its phase methods are hoisted into
// the fa/fb closures once per level so the epoch loop itself allocates
// nothing (TestEmbedWorkspaceReuse pins that at literal zero).
type trainer struct {
	emb      *Embedding
	ws       *workspace
	m        int // training edges of the level
	dim      int
	negs     int
	stride   int // delta floats per task: du, the eu snapshot, 1+negs gradients
	p        int
	span     *obs.Span // the embed:train span the rounds charge
	lr       float32
	epochKey uint64
	chunk    int // tasks per two-phase round (chunkFor)
	base     int // first task of the current chunk
	cnt      int // tasks in the current chunk

	fa, fb, fb1 func(w, lo, hi int)
}

// newTrainer prepares the level: edge extraction, negative table, edge
// order, scratch sizing, and the hoisted phase closures. The edge order's
// loops charge span.
func newTrainer(g *graph.Graph, emb *Embedding, ws *workspace, levelKey uint64, opt Options, span *obs.Span) *trainer {
	m := int(g.M())
	p := par.Workers(opt.Workers, m)
	ws.prepareLevel(g, levelKey, par.Exec{P: p, Span: span})
	dim := int(emb.Dim)
	tr := &trainer{emb: emb, ws: ws, m: m, dim: dim, negs: opt.Negatives, stride: 2*dim + 1 + opt.Negatives, p: p}
	rpt := tr.rowsPerTask()
	tr.chunk = chunkFor(g.N(), rpt)
	maxChunk := tr.chunk
	if m < maxChunk {
		maxChunk = m
	}
	ws.rows = growI32(ws.rows, maxChunk*rpt)
	ws.delta = growF32(ws.delta, maxChunk*tr.stride)
	ws.negDrawn = growI64(ws.negDrawn, p*negStride)
	tr.fa = tr.phaseA
	tr.fb = func(w, _, _ int) { tr.phaseB(w, tr.p) }
	tr.fb1 = func(w, _, _ int) { tr.phaseB(w, 1) }
	return tr
}

// runEpoch executes one pass over the level's edges in chunked two-phase
// rounds at the current lr/epochKey and returns the drawn-negative count.
// Allocation-free: every buffer it touches was sized by newTrainer.
func (t *trainer) runEpoch() int64 {
	ws := t.ws
	for i := range ws.negDrawn {
		ws.negDrawn[i] = 0
	}
	for base := 0; base < t.m; base += t.chunk {
		cnt := t.chunk
		if t.m-base < cnt {
			cnt = t.m - base
		}
		t.base, t.cnt = base, cnt
		p, fb := t.p, t.fb
		if cnt < inlineTasks {
			p, fb = 1, t.fb1
		}
		ex := par.Exec{P: p, Span: t.span}
		par.For(cnt, ex, t.fa)
		par.For(p, ex, fb)
	}
	var drawn int64
	for w := 0; w < t.p; w++ {
		drawn += ws.negDrawn[w*negStride]
	}
	return drawn
}

// rowsPerTask is 2 + negs: the source row accumulates across all pairs of
// the task, the positive destination and each negative get one slot.
func (t *trainer) rowsPerTask() int { return 2 + t.negs }

// taskState derives the task's private SplitMix64 state from
// (epochKey, task). Keying by logical task — not by worker — is what makes
// the drawn negatives independent of the parallel schedule.
func taskState(epochKey uint64, task int) uint64 {
	return par.Mix64(epochKey ^ (uint64(task)+1)*0x94d049bb133111eb)
}

func sigmoid(x float64) float64 {
	if x > 8 {
		x = 8
	} else if x < -8 {
		x = -8
	}
	return 1 / (1 + math.Exp(-x))
}

// dot is Σ a[j]·b[j] accumulated in float64 in index order. Each product
// of two float32 values is exact in float64; the conversion only keeps
// the compiler from fusing it into the add.
func dot(a, b []float32) float64 {
	b = b[:len(a)]
	var s float64
	for j, x := range a {
		s += float64(float64(x) * float64(b[j]))
	}
	return s
}

// dot2 is dot(a, b) and dot(a, c) in one pass.
func dot2(a, b, c []float32) (float64, float64) {
	b, c = b[:len(a)], c[:len(a)]
	var s, t float64
	for j, x := range a {
		s += float64(float64(x) * float64(b[j]))
		t += float64(float64(x) * float64(c[j]))
	}
	return s, t
}

// grad is the step of partner slot k given its dot product with eu: the
// positive pair (slot 1) pulls together, negatives push apart.
func (t *trainer) grad(k int, dot float64) float32 {
	if k == 1 {
		return t.lr * float32(1-sigmoid(dot))
	}
	return -t.lr * float32(sigmoid(dot))
}

// axpy2 is axpy(dst, g, x) then axpy(dst, h, y) in one pass.
func axpy2(dst []float32, g float32, x []float32, h float32, y []float32) {
	x, y = x[:len(dst)], y[:len(dst)]
	for j := range dst {
		dst[j] = dst[j] + float32(g*x[j]) + float32(h*y[j])
	}
}

// axpy adds g·x to dst, rounding each product to float32 before the add
// (the conversion forbids fused multiply-add, which would skip that
// rounding and change the bits).
func axpy(dst []float32, g float32, x []float32) {
	x = x[:len(dst)]
	for j := range dst {
		dst[j] += float32(g * x[j])
	}
}

// phaseA computes the gradients of tasks [base+lo, base+hi) of the
// current chunk into the per-task scratch. It reads embedding rows that
// are frozen for the whole chunk and writes only scratch owned by the
// task, so the parallel schedule cannot influence any value. A task first
// draws its negatives (rows 2..) from its own stream, then takes the
// partners in slot order: it computes the gradient g of each pair and
// adds g·e_partner to du. The partner's own update is g·eu; phase B forms
// it from g and the task's snapshot of eu, since eu itself may change
// before the partner's row is applied.
func (t *trainer) phaseA(w, lo, hi int) {
	dim, rpt, stride := t.dim, t.rowsPerTask(), t.stride
	ws, emb := t.ws, t.emb
	var drawn int64
	for s := lo; s < hi; s++ {
		task := t.base + s
		e := int(ws.perm[task])
		u, v := ws.srcs[e], ws.dsts[e]
		rows := ws.rows[s*rpt : (s+1)*rpt]
		rows[0], rows[1] = u, v
		state := taskState(t.epochKey, task)
		for k := 2; k < rpt; k++ {
			c := ws.sampleNeg(&state)
			drawn++
			for try := 0; (c == u || c == v) && try < negResampleTries; try++ {
				c = ws.sampleNeg(&state)
				drawn++
			}
			rows[k] = c
		}

		sc := ws.delta[s*stride : (s+1)*stride]
		du, snap, grad := sc[:dim], sc[dim:2*dim], sc[2*dim:]
		eu := emb.Row(u)
		copy(snap, eu)
		clear(du)
		// Partners in slot order, two at a time: the two dot products run
		// as independent chains, and du takes both products per element
		// in slot order.
		k := 1
		for ; k+1 < rpt; k += 2 {
			a, b := emb.Row(rows[k]), emb.Row(rows[k+1])
			da, db := dot2(eu, a, b)
			ga, gb := t.grad(k, da), t.grad(k+1, db)
			grad[k-1], grad[k] = ga, gb
			axpy2(du, ga, a, gb, b)
		}
		if k < rpt {
			a := emb.Row(rows[k])
			ga := t.grad(k, dot(eu, a))
			grad[k-1] = ga
			axpy(du, ga, a)
		}
	}
	ws.negDrawn[w*negStride] += drawn
}

// phaseB applies the chunk's updates to the rows worker w owns among p
// (row mod p). Every owner scans the slots in (task, slot) order, so
// per-row float32 addition order is fixed no matter how many workers run
// or how they are scheduled. Slot 0 adds du; partner slot k adds
// float32(grad[k-1]·snap[j]), the value a per-slot delta row would hold.
func (t *trainer) phaseB(w, p int) {
	dim, rpt, stride := t.dim, t.rowsPerTask(), t.stride
	ws, emb := t.ws, t.emb
	for s := 0; s < t.cnt; s++ {
		rows := ws.rows[s*rpt : (s+1)*rpt]
		sc := ws.delta[s*stride : (s+1)*stride]
		du, snap, grad := sc[:dim], sc[dim:2*dim], sc[2*dim:]
		for k, r := range rows {
			if p > 1 && uint32(r)%uint32(p) != uint32(w) {
				continue
			}
			row := emb.Row(r)
			if k == 0 {
				du = du[:len(row)]
				for j := range row {
					row[j] += du[j]
				}
			} else {
				axpy(row, grad[k-1], snap)
			}
		}
	}
}

// levelTrainStats are the per-level step counts trainLevel reports up.
type levelTrainStats struct {
	steps     int64
	negatives int64
}

// trainLevel runs the level's epochs. The learning rate decays linearly
// from lr0 to 0.1*lr0 across the level's epochs (a single epoch trains at
// lr0). Byte-identical output at every worker count; see the package
// comment for the two mechanisms. The level's spans open under span.
func trainLevel(g *graph.Graph, emb *Embedding, ws *workspace, level uint64, epochs int, lr0 float64, opt Options, span *obs.Span) (levelTrainStats, error) {
	var st levelTrainStats
	if g.NumV != emb.N {
		return st, fmt.Errorf("embedding has %d rows, graph has %d vertices", emb.N, g.NumV)
	}
	m := int(g.M())
	if m == 0 || epochs <= 0 {
		return st, nil
	}
	levelKey := par.Mix64(opt.Seed ^ (level+1)*0x9e3779b97f4a7c15)
	tr := newTrainer(g, emb, ws, levelKey, opt, span)
	tr.span = span.Child("embed:train")
	defer tr.span.End()
	for e := 0; e < epochs; e++ {
		lr := lr0
		if epochs > 1 {
			lr = lr0 * (1 - 0.9*float64(e)/float64(epochs-1))
		}
		tr.lr = float32(lr)
		tr.epochKey = par.Mix64(levelKey ^ (uint64(e)+1)*0xbf58476d1ce4e5b9)
		drawn := tr.runEpoch()
		st.steps += int64(m)
		st.negatives += drawn
		tr.span.Add(obs.CtrEmbedSGDSteps, int64(m))
		tr.span.Add(obs.CtrEmbedNegatives, drawn)
	}
	return st, nil
}

// projectRows carries a coarse embedding one level finer: every fine
// vertex starts from its aggregate's vector. The level maps are the same
// arrays coarsen.Hierarchy.ProjectToFine walks; here whole rows are copied
// instead of labels.
func projectRows(coarse *Embedding, m []int32, ex par.Exec) *Embedding {
	dim := int(coarse.Dim)
	fine := &Embedding{N: int32(len(m)), Dim: coarse.Dim, Vecs: make([]float32, len(m)*dim)}
	par.ForEach(len(m), ex, func(u int) {
		copy(fine.Vecs[u*dim:(u+1)*dim], coarse.Row(m[u]))
	})
	ex.Span.Add(obs.CtrEmbedProjRows, int64(len(m)))
	return fine
}

// fillRandomRows writes small deterministic pseudo-random values in
// [-0.5/dim, 0.5/dim) keyed by (seed, element index) — independent of the
// worker count, like every other stream in the package.
func fillRandomRows(vecs []float32, start int, seed uint64, dim int, ex par.Exec) {
	inv := 1.0 / float64(dim)
	par.ForEach(len(vecs)-start, ex, func(i int) {
		idx := start + i
		r := float64(par.Mix64(seed+uint64(idx))>>11) / (1 << 53) // [0,1)
		vecs[idx] = float32((r - 0.5) * inv)
	})
}
