// Package embed trains node embeddings through the coarsening hierarchy,
// the GOSH workload (arXiv:2008.12336) the ROADMAP names as the first
// ML-serving scenario: train on the coarsest graph where one epoch is
// cheap, project the embedding down the hierarchy level by level, and
// refine with a few epochs at each finer level. The walk is
// coarsen.Uncoarsen's, with projectRows (coarsen.Project over whole rows)
// as its projection; traced, level i trains under an "embed:level i" span
// whose children are "embed:train" and "embed:project".
//
// The trainer is a negative-sampling SGD over edges (skip-gram with a
// single embedding matrix, as GOSH uses), parallelized with the same
// schedule-independence discipline as the mappers (PR 2): results are
// byte-identical at every worker count. Two mechanisms deliver that:
//
//   - RNG streams are keyed by logical task, not by OS worker. Every SGD
//     task (one training edge within one epoch) derives its own SplitMix64
//     stream from (seed, level, epoch, task), so which goroutine executes
//     a task cannot change the negatives it draws. This is the
//     per-worker-streams idea from the issue made schedule-independent the
//     same way canonical renumbering made mapper tie-breaks so.
//
//   - Updates are applied in chunked two-phase rounds. A chunk of tasks
//     first computes its gradients in parallel against parameters that
//     are frozen for the duration of the chunk (phase A writes only to
//     per-task scratch: the source row's summed update du, a snapshot of
//     the source row eu, and one float32 gradient g per partner). Then
//     the updates are applied with each embedding row owned by exactly
//     one worker scanning the chunk in task order (phase B): du to the
//     source row, float32(g·eu[j]) to each partner row. Per-row update
//     order is therefore (task, slot) order regardless of the worker
//     count, and float32 addition order — the thing Hogwild-style SGD
//     leaves to the scheduler — is fixed.
//
// The cost of determinism is minibatch semantics within a chunk (tasks in
// one chunk read the same frozen parameters), which is ordinary minibatch
// SGD and does not hurt link-prediction quality at the chunk sizes used.
//
// Negatives are drawn from the deg^0.75 table through a guide table of
// 2^k ≥ n buckets, which returns exactly the index a binary search over
// the whole table would, in expected O(1). sgd_ref_test.go keeps the
// trainer this one replaced (a full binary search per negative and one
// dim-length delta row per slot) as the bit-identity oracle.
package embed

import (
	"fmt"
	"time"

	"mlcg/internal/coarsen"
	"mlcg/internal/graph"
	"mlcg/internal/obs"
	"mlcg/internal/par"
)

// Options configures multilevel embedding training. The zero value of any
// field selects the documented default.
type Options struct {
	// Dim is the embedding dimensionality (default 32).
	Dim int
	// Epochs is the epoch count at the coarsest level; finer levels decay
	// geometrically from it (default 32). One epoch is one pass over the
	// level's training edges.
	Epochs int
	// Negatives is the number of negative samples drawn per positive edge
	// (default 5).
	Negatives int
	// LR is the initial learning rate at the coarsest level (default 0.25).
	LR float64
	// LevelDecay scales the epoch count per finer level: a level i steps
	// away from the coarsest trains for max(1, round(Epochs*LevelDecay^i))
	// epochs (default 0.65). Coarse levels are cheap and train the global
	// structure; fine levels only polish locally, exactly the GOSH
	// smoothing-ratio idea.
	LevelDecay float64
	// LRDecay scales the starting learning rate per finer level the same
	// way (default 0.85). Within a level the rate additionally decays
	// linearly to 10% of the level's starting rate across its epochs.
	LRDecay float64
	// Seed keys every RNG stream of the run (edge order, negative
	// sampling). Identical options and seed give byte-identical embeddings
	// at every worker count.
	Seed uint64
	// Workers is the parallelism degree (0 = GOMAXPROCS).
	Workers int
}

// withDefaults resolves zero fields to the documented defaults.
func (o Options) withDefaults() Options {
	if o.Dim <= 0 {
		o.Dim = 32
	}
	if o.Epochs <= 0 {
		o.Epochs = 32
	}
	if o.Negatives <= 0 {
		o.Negatives = 5
	}
	if o.LR <= 0 {
		o.LR = 0.25
	}
	if o.LevelDecay <= 0 || o.LevelDecay > 1 {
		o.LevelDecay = 0.65
	}
	if o.LRDecay <= 0 || o.LRDecay > 1 {
		o.LRDecay = 0.85
	}
	return o
}

// Embedding is a dense n x dim float32 matrix, row u being the vector of
// vertex u. Float32 keeps the training memory at GOSH's footprint and
// makes "byte-identical" a literal statement about the stored bits.
type Embedding struct {
	N   int32
	Dim int32
	// Vecs is row-major: vertex u occupies Vecs[u*Dim : (u+1)*Dim].
	Vecs []float32
}

// Row returns the embedding vector of u, aliasing the backing store.
func (e *Embedding) Row(u int32) []float32 {
	d := int64(e.Dim)
	return e.Vecs[int64(u)*d : (int64(u)+1)*d]
}

// Score is the dot product of the two vertex vectors, the link score used
// by the evaluation harness (higher = more likely an edge).
func (e *Embedding) Score(u, v int32) float64 {
	eu, ev := e.Row(u), e.Row(v)
	var s float64
	for i := range eu {
		s += float64(eu[i]) * float64(ev[i])
	}
	return s
}

// Result is a finished training run: the finest-level embedding plus the
// measurements the bench suite and CLIs report.
type Result struct {
	Emb *Embedding
	// Steps counts positive-sample SGD steps across all levels (one per
	// training edge per epoch); the bench suite's steps/sec divides this
	// by TrainTime.
	Steps int64
	// Negatives counts drawn negative samples.
	Negatives int64
	// TrainTime is wall time spent in SGD epochs and projection, excluding
	// hierarchy construction (which is the coarsening benchmarks' number).
	TrainTime time.Duration
	// EpochsPerLevel records the realized schedule, finest level first
	// (index parallel to h.Graphs).
	EpochsPerLevel []int
}

// StepsPerSec returns positive SGD steps per second of training time.
func (r *Result) StepsPerSec() float64 {
	if r.TrainTime <= 0 {
		return 0
	}
	return float64(r.Steps) / r.TrainTime.Seconds()
}

// Schedule returns the per-level (epochs, lr) pairs for a hierarchy with
// the given number of graphs (levels+1), finest first. Exposed so the
// flat-baseline comparison and the docs can state the exact schedule.
func Schedule(numGraphs int, opt Options) (epochs []int, lrs []float64) {
	opt = opt.withDefaults()
	epochs = make([]int, numGraphs)
	lrs = make([]float64, numGraphs)
	ecur, lcur := float64(opt.Epochs), opt.LR
	// Walk from the coarsest graph (last index) to the finest.
	for i := numGraphs - 1; i >= 0; i-- {
		e := int(ecur + 0.5)
		if e < 1 {
			e = 1
		}
		epochs[i] = e
		lrs[i] = lcur
		ecur *= opt.LevelDecay
		lcur *= opt.LRDecay
	}
	return epochs, lrs
}

// TotalEpochs sums the schedule for a hierarchy with numGraphs graphs —
// the epoch budget a flat single-level run needs to be an equal-budget
// baseline.
func TotalEpochs(numGraphs int, opt Options) int {
	epochs, _ := Schedule(numGraphs, opt)
	total := 0
	for _, e := range epochs {
		total += e
	}
	return total
}

// TrainHierarchy trains a multilevel embedding: SGD on the coarsest graph,
// then repeatedly project one level finer and refine. The returned
// embedding covers the finest (input) graph.
func TrainHierarchy(h *coarsen.Hierarchy, opt Options) (*Result, error) {
	if h == nil || len(h.Graphs) == 0 {
		return nil, fmt.Errorf("embed: nil or empty hierarchy")
	}
	opt = opt.withDefaults()
	epochs, lrs := Schedule(len(h.Graphs), opt)
	res := &Result{EpochsPerLevel: epochs}
	t0 := time.Now()

	ws := newWorkspace()
	ex := par.Exec{P: opt.Workers, Span: obs.Ambient()}
	last := h.Levels()
	emb := randomInit(h.Graphs[last].NumV, int32(opt.Dim), opt.Seed, ex)
	emb, err := coarsen.Uncoarsen(h, last, emb, "embed", ex,
		func(i int, g *graph.Graph, emb *Embedding, ex par.Exec) (*Embedding, error) {
			st, err := trainLevel(g, emb, ws, uint64(i), epochs[i], lrs[i], opt, ex.Span)
			if err != nil {
				return nil, fmt.Errorf("embed: level %d: %w", i, err)
			}
			res.Steps += st.steps
			res.Negatives += st.negatives
			return emb, nil
		}, projectRows)
	if err != nil {
		return nil, err
	}
	res.Emb = emb
	res.TrainTime = time.Since(t0)
	return res, nil
}

// TrainFlat trains on a single graph with the given epoch count at the
// configured initial learning rate — the equal-budget single-level
// baseline the multilevel claim is measured against.
func TrainFlat(g *graph.Graph, totalEpochs int, opt Options) (*Result, error) {
	if g == nil {
		return nil, fmt.Errorf("embed: nil graph")
	}
	opt = opt.withDefaults()
	if totalEpochs < 1 {
		totalEpochs = 1
	}
	res := &Result{EpochsPerLevel: []int{totalEpochs}}
	t0 := time.Now()
	ws := newWorkspace()
	span := obs.Ambient()
	emb := randomInit(g.NumV, int32(opt.Dim), opt.Seed, par.Exec{P: opt.Workers, Span: span})
	lvl := span.Child("embed:level 0")
	st, err := trainLevel(g, emb, ws, 0, totalEpochs, opt.LR, opt, lvl)
	lvl.End()
	if err != nil {
		return nil, fmt.Errorf("embed: flat: %w", err)
	}
	res.Steps, res.Negatives = st.steps, st.negatives
	res.Emb = emb
	res.TrainTime = time.Since(t0)
	return res, nil
}

// randomInit fills an embedding with small deterministic pseudo-random
// values in [-0.5, 0.5)/dim, the word2vec-style init. Keyed by (seed,
// element index) so the result is independent of the worker count; the
// init stream is Mix64-separated from the SGD task streams.
func randomInit(n, dim int32, seed uint64, ex par.Exec) *Embedding {
	e := &Embedding{N: n, Dim: dim, Vecs: make([]float32, int64(n)*int64(dim))}
	fillRandomRows(e.Vecs, 0, par.Mix64(seed^0x696e6974), int(dim), ex)
	return e
}
