package partition

import (
	"math"
	"sort"

	"mlcg/internal/graph"
	"mlcg/internal/obs"
	"mlcg/internal/par"
)

// FiedlerOptions controls the power iteration for the eigenvector of the
// second-smallest Laplacian eigenvalue.
type FiedlerOptions struct {
	// Tol is the stopping criterion: the iteration stops when the 2-norm
	// of the difference between successive (normalized) iterates drops
	// below Tol. The paper uses 1e-10. Zero means 1e-10.
	Tol float64
	// MaxIter bounds the iteration count. Zero means 1000.
	MaxIter int
	// Workers is the SpMV parallelism (0 = GOMAXPROCS).
	Workers int
}

func (o FiedlerOptions) tol() float64 {
	if o.Tol <= 0 {
		return 1e-10
	}
	return o.Tol
}

func (o FiedlerOptions) maxIter() int {
	if o.MaxIter <= 0 {
		return 1000
	}
	return o.MaxIter
}

// Fiedler approximates the Fiedler vector of g's weighted Laplacian by
// shifted power iteration: iterate x <- (σI - L)x with σ an upper bound on
// λ_max(L) (twice the maximum weighted degree, by Gershgorin), deflating
// the constant vector after every multiply. x0 seeds the iteration; pass
// nil for a deterministic pseudo-random start derived from seed. Returns
// the vector and the number of iterations performed.
//
// Each iteration is one parallel matrix-free multiply (laplacianOp) and
// three sequential sweeps: the mean, the centred norm, and the scale fused
// with the stopping rule. The reductions run in index order on one
// goroutine, so the result is bit-identical at every worker count.
func Fiedler(g *graph.Graph, x0 []float64, seed uint64, opt FiedlerOptions) ([]float64, int) {
	return fiedler(g, x0, seed, opt, obs.Ambient())
}

// fiedler is Fiedler with its "fiedler" span opened under span.
func fiedler(g *graph.Graph, x0 []float64, seed uint64, opt FiedlerOptions, span *obs.Span) ([]float64, int) {
	n := g.N()
	if n == 0 {
		return nil, 0
	}
	if n == 1 {
		return []float64{0}, 0
	}
	sp := span.Child("fiedler")
	defer sp.End()
	ex := par.Exec{P: opt.Workers, Span: sp}
	op := newLaplacianOp(g, ex)

	x := make([]float64, n)
	if x0 != nil {
		copy(x, x0)
	} else {
		par.ForEach(n, ex, func(i int) {
			x[i] = float64(par.Mix64(seed^uint64(i))%2000)/1000 - 1
		})
	}
	inv := 1 / center(x)
	for i := range x {
		x[i] *= inv
	}

	// x holds the current iterate and y receives the next; the two
	// buffers swap roles every iteration, so x doubles as the previous
	// iterate the stopping rule compares against.
	y := make([]float64, n)
	tol := opt.tol()
	iters, converged := 0, false
	for ; iters < opt.maxIter(); iters++ {
		op.apply(y, x)
		inv := 1 / center(y)
		// Stopping rule: ||x_k - x_{k-1}||_2 < tol, sign-adjusted (the
		// power iteration may flip sign each step when the dominant
		// shifted eigenvalue is near σ).
		var dPos, dNeg float64
		for i := range y {
			y[i] *= inv
			dp := y[i] - x[i]
			dn := y[i] + x[i]
			dPos += dp * dp
			dNeg += dn * dn
		}
		x, y = y, x
		if math.Sqrt(math.Min(dPos, dNeg)) < tol {
			iters++
			converged = true
			break
		}
	}
	sp.Add(obs.CtrFiedlerIters, int64(iters))
	sp.Add(obs.CtrSpMVNNZ, int64(iters)*g.Size())
	if !converged {
		sp.Add(obs.CtrFiedlerCapped, 1)
	}
	return x, iters
}

// center subtracts the mean from x and returns the 2-norm of the result.
// A constant x (zero norm after centring) is a degenerate start: it is
// replaced by a fixed ramp and the ramp's norm is returned.
func center(x []float64) float64 {
	n := len(x)
	var sum float64
	for _, v := range x {
		sum += v
	}
	mean := sum / float64(n)
	var norm2 float64
	for i := range x {
		x[i] -= mean
		norm2 += x[i] * x[i]
	}
	norm := math.Sqrt(norm2)
	if norm == 0 {
		for i := range x {
			x[i] = float64(i) - float64(n-1)/2
			norm2 += x[i] * x[i]
		}
		norm = math.Sqrt(norm2)
	}
	return norm
}

// laplacianOp is the shifted Laplacian σI − L of a graph, applied without
// forming L = D − A: a row reads the graph's own adjacency. σ is the
// Gershgorin bound 2·max weighted degree (1 for an edgeless graph), so
// every eigenvalue of σI − L lies in [0, σ].
//
// Row i of an apply computes exactly what the explicit Laplacian's SpMV
// followed by the shift computed: the row sum starts from the diagonal
// term deg[i]·x[i] and adds −w·x[c] per neighbour in adjacency order, then
// y[i] = σx[i] − sum. Rows are independent, so the parallel apply is
// bit-identical at every worker count.
type laplacianOp struct {
	xadj  []int64
	adj   []int32
	wgt   []int64
	deg   []float64 // weighted degrees; nil when every edge weight is 1
	sigma float64
	ex    par.Exec

	// x and y are the operands of the apply in progress. kernel is bound
	// once to applyRange, so an apply allocates nothing.
	x, y   []float64
	kernel func(w, lo, hi int)
}

func newLaplacianOp(g *graph.Graph, ex par.Exec) *laplacianOp {
	n := g.N()
	op := &laplacianOp{xadj: g.Xadj, adj: g.Adj, wgt: g.Wgt, ex: ex}
	op.kernel = op.applyRange
	unit := true
	for _, w := range g.Wgt {
		if w != 1 {
			unit = false
			break
		}
	}
	if unit {
		// The weighted degree is the degree: a sum of ones is exact.
		for i := 0; i < n; i++ {
			if d := float64(g.Xadj[i+1] - g.Xadj[i]); 2*d > op.sigma {
				op.sigma = 2 * d
			}
		}
	} else {
		op.deg = make([]float64, n)
		par.ForChunked(n, ex, 512, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				var d float64
				for _, w := range g.Wgt[g.Xadj[i]:g.Xadj[i+1]] {
					d += float64(w)
				}
				op.deg[i] = d
			}
		})
		for _, d := range op.deg {
			if 2*d > op.sigma {
				op.sigma = 2 * d
			}
		}
	}
	if op.sigma == 0 {
		op.sigma = 1 // edgeless graph: any vector is an eigenvector
	}
	return op
}

// apply sets y = (σI − L)x in one parallel pass over the rows.
func (op *laplacianOp) apply(y, x []float64) {
	op.x, op.y = x, y
	par.ForChunked(len(x), op.ex, 512, op.kernel)
}

func (op *laplacianOp) applyRange(_, lo, hi int) {
	x, y, sigma := op.x, op.y, op.sigma
	if op.deg == nil {
		for i := lo; i < hi; i++ {
			s, e := op.xadj[i], op.xadj[i+1]
			// The sum starts at zero and adds the diagonal term first,
			// as the explicit SpMV did, so even the sign of a zero row
			// sum matches. sum -= x[c] is exactly the SpMV's
			// sum += (−1)·x[c].
			var sum float64
			sum += float64(e-s) * x[i]
			for _, c := range op.adj[s:e] {
				sum -= x[c]
			}
			y[i] = sigma*x[i] - sum
		}
		return
	}
	for i := lo; i < hi; i++ {
		s, e := op.xadj[i], op.xadj[i+1]
		adj, wgt := op.adj[s:e], op.wgt[s:e]
		wgt = wgt[:len(adj)]
		var sum float64
		sum += op.deg[i] * x[i]
		for k, c := range adj {
			v := -float64(wgt[k])
			sum += v * x[c]
		}
		y[i] = sigma*x[i] - sum
	}
}

// SplitByVectorTarget bisects g at a prefix of its vertices sorted by the
// given per-vertex values: the prefix whose weight is closest to target0
// (0 means half the total, the weighted median) is side 0. At the median
// the result is balanced up to the weight of a single vertex, matching the
// paper's no-imbalance reporting.
func SplitByVectorTarget(g *graph.Graph, x []float64, target0 int64) []int32 {
	n := g.N()
	idx := identity(n)
	sort.Slice(idx, func(a, b int) bool {
		if x[idx[a]] != x[idx[b]] {
			return x[idx[a]] < x[idx[b]]
		}
		return idx[a] < idx[b]
	})
	total := g.TotalVertexWeight()
	if target0 <= 0 {
		target0 = total / 2
	}
	// Contiguous prefix split: find the prefix whose weight is closest to
	// the target, so the cut respects the spectral ordering.
	var acc int64
	bestK, bestDiff := 0, total+1
	for k, u := range idx {
		acc += g.VertexWeight(u)
		diff := acc - target0
		if diff < 0 {
			diff = -diff
		}
		if diff < bestDiff {
			bestDiff = diff
			bestK = k + 1
		}
	}
	part := make([]int32, n)
	for k := bestK; k < n; k++ {
		part[idx[k]] = 1
	}
	return part
}
