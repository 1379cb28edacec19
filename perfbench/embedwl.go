package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"mlcg/internal/coarsen"
	"mlcg/internal/embed"
	"mlcg/internal/gen"
)

// embedRGGs are the vertex counts of the embed-rgg workload's random
// geometric graphs (rgg24 analogs).
var embedRGGs = []int{5000, 7500, 10000}

// Every hierarchy is cut at embedLevels levels, which all of these graphs
// reach before the cutoff: the epoch schedule then has the same shape for
// every seed. Uncapped, GOSH stops after 6 to 8 levels depending on the
// seed, and the finest level (most of the SGD work) trains for one or two
// epochs accordingly. embedEpochs (coarsest-level epochs) keeps the work
// per pass near the uncapped default's.
const (
	embedLevels = 5
	embedEpochs = 16
)

// minAUC is the link-prediction quality every embedding must reach.
const minAUC = 0.90

// runEmbed is the embed-rgg workload: GOSH-style multilevel embedding
// (Coarsener.Run with the GOSH mapper, then embed.TrainHierarchy) of random
// geometric graphs with 10% of their edges held out at set-up.
func runEmbed(cfg config) (*report, error) {
	setup := func() (*embedPipeline, error) {
		pl := &embedPipeline{seed: derive(cfg.seed, 2), trainSeed: derive(cfg.seed, 3)}
		for i, n := range embedRGGs {
			g := gen.RGG(n, 0, derive(cfg.seed, uint64(10+i)))
			sp, err := embed.SplitForEval(g, 0.1, derive(cfg.seed, uint64(20+i)))
			if err != nil {
				return nil, err
			}
			pl.names = append(pl.names, fmt.Sprintf("rgg%d", n))
			pl.splits = append(pl.splits, sp)
		}
		return pl, nil
	}
	pl, setupS, err := timedSetup(setup, func(*embedPipeline) {})
	if err != nil {
		return nil, err
	}
	rep := runPipeline(cfg, pl, setupS)
	var sizes []map[string]any
	for i, sp := range pl.splits {
		g := sp.Train
		sizes = append(sizes, map[string]any{"name": pl.names[i], "n": g.N(), "m_train": g.M(),
			"2m+n": 2*g.M() + int64(g.N()), "held_out": len(sp.PosU)})
	}
	rep.detail["graphs"] = sizes
	return rep, nil
}

type embedPipeline struct {
	names           []string
	splits          []*embed.EvalSplit
	seed, trainSeed uint64
}

type embedding struct {
	res          *embed.Result
	build, solve time.Duration
	err          error
}

func (e *embedPipeline) pass(p int, lay *layers) func() []op {
	out := make([]embedding, len(e.splits))
	for i, sp := range e.splits {
		out[i] = e.one(sp, p, lay)
	}
	return func() []op {
		ops := make([]op, len(out))
		for i, r := range out {
			ops[i] = e.check(i, r)
		}
		return ops
	}
}

// one embeds a training graph. Traced or not, the calls are the same two
// public entry points; the traced pass puts a span around each.
func (e *embedPipeline) one(sp *embed.EvalSplit, p int, lay *layers) embedding {
	c := coarsen.Coarsener{Mapper: coarsen.GOSH{}, Builder: &coarsen.AutoConstruct{}, MaxLevels: embedLevels, Seed: e.seed, Workers: p}
	var h *coarsen.Hierarchy
	var res *embed.Result
	var err error
	run := func(name string, fn func()) {
		if lay != nil {
			lay.span(name, fn)
		} else {
			fn()
		}
	}
	t0 := time.Now()
	run("coarsen.Run", func() { h, err = c.Run(sp.Train) })
	t1 := time.Now()
	if err != nil {
		return embedding{err: err}
	}
	run("embed.TrainHierarchy", func() {
		res, err = embed.TrainHierarchy(h, embed.Options{Epochs: embedEpochs, Seed: e.trainSeed, Workers: p})
	})
	t2 := time.Now()
	if err != nil {
		return embedding{err: err}
	}
	if lay != nil {
		lay.hierarchy(h)
		lay.add("embed.sgd_steps", float64(res.Steps))
		lay.add("embed.negatives", float64(res.Negatives))
	}
	return embedding{res: res, build: t1.Sub(t0), solve: t2.Sub(t1)}
}

// check scores an embedding on its held-out edges; it must reach minAUC.
func (e *embedPipeline) check(i int, r embedding) op {
	o := op{name: e.names[i], build: r.build, solve: r.solve, err: r.err}
	if o.err != nil {
		return o
	}
	o.score = embed.LinkAUC(r.res.Emb, e.splits[i])
	if o.score < minAUC || math.IsNaN(o.score) {
		o.err = fmt.Errorf("AUC %.4f below %.2f", o.score, minAUC)
	}
	h := fnv.New64a()
	var buf [4]byte
	for _, v := range r.res.Emb.Vecs {
		b := math.Float32bits(v)
		buf[0], buf[1], buf[2], buf[3] = byte(b), byte(b>>8), byte(b>>16), byte(b>>24)
		h.Write(buf[:])
	}
	o.fp = h.Sum64()
	return o
}

func (e *embedPipeline) quality(ops []op) (string, float64) {
	var sum float64
	for _, o := range ops {
		sum += o.score
	}
	return "auc", sum / float64(len(ops))
}

// p1Contract: embeddings are byte-identical at every worker count.
func (e *embedPipeline) p1Contract() bool { return true }
