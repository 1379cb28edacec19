package partition

import (
	"math"

	"mlcg/internal/graph"
	"mlcg/internal/par"
	"mlcg/internal/spmat"
)

// The reference power iterations below are the explicit-Laplacian
// implementations that Fiedler and FiedlerK replaced, kept verbatim as
// the oracle of fiedler_test.go: each level builds spmat.Laplacian, every
// iteration multiplies with CSR.MulVec, shifts, and re-normalizes. The
// matrix-free solvers must reproduce their vectors and iteration counts
// bit for bit.

// fiedlerRef is the reference for Fiedler.
func fiedlerRef(g *graph.Graph, x0 []float64, seed uint64, opt FiedlerOptions) ([]float64, int) {
	n := g.N()
	if n == 0 {
		return nil, 0
	}
	if n == 1 {
		return []float64{0}, 0
	}
	l := spmat.Laplacian(g)
	p := opt.Workers

	// Gershgorin bound: every Laplacian eigenvalue lies in [0, 2·maxdeg_w].
	var sigma float64
	for i := 0; i < n; i++ {
		cols, vals := l.Row(int32(i))
		var d float64
		for k := range cols {
			if cols[k] == int32(i) {
				d = vals[k]
				break
			}
		}
		if 2*d > sigma {
			sigma = 2 * d
		}
	}
	if sigma == 0 {
		sigma = 1 // edgeless graph: any vector is an eigenvector
	}

	x := make([]float64, n)
	if x0 != nil {
		copy(x, x0)
	} else {
		par.ForEach(n, par.Exec{P: p}, func(i int) {
			x[i] = float64(par.Mix64(seed^uint64(i))%2000)/1000 - 1
		})
	}
	deflateNormalize(x, p)

	y := make([]float64, n)
	prev := make([]float64, n)
	tol := opt.tol()
	iters := 0
	for ; iters < opt.maxIter(); iters++ {
		copy(prev, x)
		// y = (σI - L)x
		l.MulVec(y, x, p)
		par.ForEach(n, par.Exec{P: p}, func(i int) {
			y[i] = sigma*x[i] - y[i]
		})
		x, y = y, x
		deflateNormalize(x, p)
		// Stopping rule: ||x_k - x_{k-1}||_2 < tol, sign-adjusted (the
		// power iteration may flip sign each step when the dominant
		// shifted eigenvalue is near σ).
		var dPos, dNeg float64
		for i := 0; i < n; i++ {
			dp := x[i] - prev[i]
			dn := x[i] + prev[i]
			dPos += dp * dp
			dNeg += dn * dn
		}
		if math.Sqrt(math.Min(dPos, dNeg)) < tol {
			iters++
			break
		}
	}
	return x, iters
}

// deflateNormalize removes the component along the all-ones vector and
// scales to unit 2-norm.
func deflateNormalize(x []float64, p int) {
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
		// Degenerate start (x was constant): restart from a fixed ramp.
		for i := range x {
			x[i] = float64(i) - float64(n-1)/2
			norm2 += x[i] * x[i]
		}
		norm = math.Sqrt(norm2)
	}
	inv := 1 / norm
	par.ForEach(n, par.Exec{P: p}, func(i int) {
		x[i] *= inv
	})
}

// fiedlerKRef is the reference for FiedlerK.
func fiedlerKRef(g *graph.Graph, k int, x0 [][]float64, seed uint64, opt FiedlerOptions) ([][]float64, int) {
	n := g.N()
	if n == 0 || k <= 0 {
		return nil, 0
	}
	l := spmat.Laplacian(g)
	p := opt.Workers

	var sigma float64
	for i := 0; i < n; i++ {
		cols, vals := l.Row(int32(i))
		for kk := range cols {
			if cols[kk] == int32(i) {
				if 2*vals[kk] > sigma {
					sigma = 2 * vals[kk]
				}
				break
			}
		}
	}
	if sigma == 0 {
		sigma = 1
	}

	xs := make([][]float64, k)
	for j := range xs {
		xs[j] = make([]float64, n)
		if j < len(x0) && x0[j] != nil {
			copy(xs[j], x0[j])
		} else {
			s := seed ^ uint64(j+1)*0x9e3779b97f4a7c15
			for i := 0; i < n; i++ {
				xs[j][i] = float64(par.Mix64(s^uint64(i))%2000)/1000 - 1
			}
		}
	}
	orthonormalize := func() {
		for j := range xs {
			deflate(xs[j]) // remove the constant component
			for prev := 0; prev < j; prev++ {
				dot := dotVec(xs[j], xs[prev])
				for i := range xs[j] {
					xs[j][i] -= dot * xs[prev][i]
				}
			}
			normalize(xs[j], j)
		}
	}
	orthonormalize()

	tol := opt.tol()
	y := make([]float64, n)
	prev := make([]float64, n)
	iters := 0
	for ; iters < opt.maxIter(); iters++ {
		maxDelta := 0.0
		for j := range xs {
			copy(prev, xs[j])
			l.MulVec(y, xs[j], p)
			for i := 0; i < n; i++ {
				xs[j][i] = sigma*xs[j][i] - y[i]
			}
			deflate(xs[j])
			for pj := 0; pj < j; pj++ {
				dot := dotVec(xs[j], xs[pj])
				for i := range xs[j] {
					xs[j][i] -= dot * xs[pj][i]
				}
			}
			normalize(xs[j], j)
			var dPos, dNeg float64
			for i := 0; i < n; i++ {
				dp := xs[j][i] - prev[i]
				dn := xs[j][i] + prev[i]
				dPos += dp * dp
				dNeg += dn * dn
			}
			if d := math.Sqrt(math.Min(dPos, dNeg)); d > maxDelta {
				maxDelta = d
			}
		}
		if maxDelta < tol {
			iters++
			break
		}
	}
	// Power iteration on σI−L converges to the LARGEST shifted eigenvalues
	// = the smallest Laplacian ones; the Gram–Schmidt sweep keeps vector j
	// orthogonal to the previous, so xs comes out eigenvalue-ordered.
	return xs, iters
}
