package embed

import (
	"fmt"
	"math"
	"sort"

	"mlcg/internal/coarsen"
	"mlcg/internal/graph"
	"mlcg/internal/par"
)

// The reference trainer below is the SGD round that the snapshot trainer
// in sgd.go replaced, kept as the oracle of sgd_test.go: negatives come
// from a binary search over the whole deg^0.75 prefix, phase A writes one
// dim-length delta row per slot ((2+negs)·dim floats per task), and phase
// B adds each delta row to its owner's embedding row in (task, slot)
// order. The only edits are the ref names and an explicit conversion
// around every product that feeds a sum, which keeps fused multiply-add
// contraction out of both trainers at any GOAMD64 level. The trainer must
// reproduce its embeddings, step and negative counts bit for bit.

type refWorkspace struct {
	srcs, dsts []int32
	perm       []int32
	cum        []float64
	total      float64
	rows       []int32
	delta      []float32
	negDrawn   []int64
}

func (ws *refWorkspace) prepareLevel(g *graph.Graph, levelKey uint64, p int) {
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
	if m > 0 {
		ws.perm = par.RandPerm(m, par.Mix64(levelKey^0x7065726d), par.Exec{P: p})
	} else {
		ws.perm = ws.perm[:0]
	}
}

type refTrainer struct {
	emb      *Embedding
	ws       *refWorkspace
	m        int
	dim      int
	negs     int
	p        int
	lr       float32
	epochKey uint64
	chunk    int
	base     int
	cnt      int
}

func newRefTrainer(g *graph.Graph, emb *Embedding, ws *refWorkspace, levelKey uint64, opt Options) *refTrainer {
	m := int(g.M())
	p := par.Workers(opt.Workers, m)
	ws.prepareLevel(g, levelKey, p)
	tr := &refTrainer{emb: emb, ws: ws, m: m, dim: int(emb.Dim), negs: opt.Negatives, p: p}
	rpt := tr.rowsPerTask()
	tr.chunk = chunkFor(g.N(), rpt)
	maxChunk := tr.chunk
	if m < maxChunk {
		maxChunk = m
	}
	ws.rows = growI32(ws.rows, maxChunk*rpt)
	ws.delta = growF32(ws.delta, maxChunk*rpt*tr.dim)
	ws.negDrawn = growI64(ws.negDrawn, p*negStride)
	return tr
}

func (t *refTrainer) runEpoch() int64 {
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
		par.For(cnt, par.Exec{P: t.p}, t.phaseA)
		par.For(t.p, par.Exec{P: t.p}, t.phaseB)
	}
	var drawn int64
	for w := 0; w < t.p; w++ {
		drawn += ws.negDrawn[w*negStride]
	}
	return drawn
}

func (t *refTrainer) rowsPerTask() int { return 2 + t.negs }

func (t *refTrainer) sampleNeg(state *uint64) int32 {
	r := float64(par.SplitMix64(state)>>11) / (1 << 53) * t.ws.total
	i := sort.SearchFloat64s(t.ws.cum, r)
	if i >= len(t.ws.cum) {
		i = len(t.ws.cum) - 1
	}
	return int32(i)
}

func (t *refTrainer) phaseA(w, lo, hi int) {
	dim, rpt := t.dim, t.rowsPerTask()
	ws, emb := t.ws, t.emb
	var drawn int64
	for s := lo; s < hi; s++ {
		task := t.base + s
		e := int(ws.perm[task])
		u, v := ws.srcs[e], ws.dsts[e]
		slot := s * rpt
		rows := ws.rows[slot : slot+rpt]
		delta := ws.delta[slot*dim : (slot+rpt)*dim]
		du := delta[:dim]
		for j := range du {
			du[j] = 0
		}
		rows[0], rows[1] = u, v
		eu := emb.Row(u)

		ev := emb.Row(v)
		var dot float64
		for j := 0; j < dim; j++ {
			dot += float64(float64(eu[j]) * float64(ev[j]))
		}
		g := t.lr * float32(1-sigmoid(dot))
		dv := delta[dim : 2*dim]
		for j := 0; j < dim; j++ {
			du[j] += float32(g * ev[j])
			dv[j] = g * eu[j]
		}

		state := taskState(t.epochKey, task)
		for k := 0; k < t.negs; k++ {
			c := t.sampleNeg(&state)
			drawn++
			for try := 0; (c == u || c == v) && try < negResampleTries; try++ {
				c = t.sampleNeg(&state)
				drawn++
			}
			rows[2+k] = c
			ec := emb.Row(c)
			dot = 0
			for j := 0; j < dim; j++ {
				dot += float64(float64(eu[j]) * float64(ec[j]))
			}
			g = -t.lr * float32(sigmoid(dot))
			dc := delta[(2+k)*dim : (3+k)*dim]
			for j := 0; j < dim; j++ {
				du[j] += float32(g * ec[j])
				dc[j] = g * eu[j]
			}
		}
	}
	ws.negDrawn[w*negStride] += drawn
}

func (t *refTrainer) phaseB(w, _, _ int) {
	dim := t.dim
	ws, emb := t.ws, t.emb
	slots := t.cnt * t.rowsPerTask()
	for idx := 0; idx < slots; idx++ {
		r := ws.rows[idx]
		if int(r)%t.p != w {
			continue
		}
		row := emb.Row(r)
		d := ws.delta[idx*dim : (idx+1)*dim]
		for j := 0; j < dim; j++ {
			row[j] += d[j]
		}
	}
}

func refTrainLevel(g *graph.Graph, emb *Embedding, ws *refWorkspace, level uint64, epochs int, lr0 float64, opt Options) (levelTrainStats, error) {
	var st levelTrainStats
	if g.NumV != emb.N {
		return st, fmt.Errorf("embedding has %d rows, graph has %d vertices", emb.N, g.NumV)
	}
	m := int(g.M())
	if m == 0 || epochs <= 0 {
		return st, nil
	}
	levelKey := par.Mix64(opt.Seed ^ (level+1)*0x9e3779b97f4a7c15)
	tr := newRefTrainer(g, emb, ws, levelKey, opt)
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
	}
	return st, nil
}

// refTrainHierarchy is TrainHierarchy over the reference level trainer,
// without spans and timing.
func refTrainHierarchy(h *coarsen.Hierarchy, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	epochs, lrs := Schedule(len(h.Graphs), opt)
	res := &Result{EpochsPerLevel: epochs}
	ws := &refWorkspace{}
	last := len(h.Graphs) - 1
	emb := randomInit(h.Graphs[last].NumV, int32(opt.Dim), opt.Seed, par.Exec{P: opt.Workers})
	for i := last; i >= 0; i-- {
		st, err := refTrainLevel(h.Graphs[i], emb, ws, uint64(i), epochs[i], lrs[i], opt)
		if err != nil {
			return nil, err
		}
		res.Steps += st.steps
		res.Negatives += st.negatives
		if i > 0 {
			emb = projectRows(emb, h.Maps[i-1], par.Exec{P: opt.Workers})
		}
	}
	res.Emb = emb
	return res, nil
}

// refTrainFlat is TrainFlat over the reference level trainer.
func refTrainFlat(g *graph.Graph, totalEpochs int, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	if totalEpochs < 1 {
		totalEpochs = 1
	}
	emb := randomInit(g.NumV, int32(opt.Dim), opt.Seed, par.Exec{P: opt.Workers})
	st, err := refTrainLevel(g, emb, &refWorkspace{}, 0, totalEpochs, opt.LR, opt)
	if err != nil {
		return nil, err
	}
	return &Result{Emb: emb, Steps: st.steps, Negatives: st.negatives, EpochsPerLevel: []int{totalEpochs}}, nil
}
