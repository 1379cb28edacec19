package partition

import (
	"math"

	"mlcg/internal/coarsen"
	"mlcg/internal/graph"
	"mlcg/internal/obs"
	"mlcg/internal/par"
)

// FiedlerK computes the eigenvectors of the k smallest non-trivial
// Laplacian eigenvalues (k = 1 is the Fiedler vector) by simultaneous
// shifted power iteration with Gram–Schmidt re-orthogonalization against
// the constant vector and each other. x0 optionally seeds the vectors
// (fewer than k seeds are allowed; the rest start pseudo-randomly).
// Returns the vectors ordered by increasing eigenvalue and the iteration
// count.
func FiedlerK(g *graph.Graph, k int, x0 [][]float64, seed uint64, opt FiedlerOptions) ([][]float64, int) {
	return fiedlerK(g, k, x0, seed, opt, obs.Ambient())
}

// fiedlerK is FiedlerK with its "fiedler" span opened under span.
func fiedlerK(g *graph.Graph, k int, x0 [][]float64, seed uint64, opt FiedlerOptions, span *obs.Span) ([][]float64, int) {
	n := g.N()
	if n == 0 || k <= 0 {
		return nil, 0
	}
	sp := span.Child("fiedler")
	defer sp.End()
	op := newLaplacianOp(g, par.Exec{P: opt.Workers, Span: sp})

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

	// y receives each vector's next iterate and takes over the vector's
	// old buffer afterwards, which the stopping rule compares against.
	tol := opt.tol()
	y := make([]float64, n)
	iters, converged := 0, false
	for ; iters < opt.maxIter(); iters++ {
		maxDelta := 0.0
		for j := range xs {
			prev := xs[j]
			op.apply(y, prev)
			xs[j], y = y, prev
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
			converged = true
			break
		}
	}
	sp.Add(obs.CtrFiedlerIters, int64(iters))
	sp.Add(obs.CtrSpMVNNZ, int64(iters*k)*g.Size())
	if !converged {
		sp.Add(obs.CtrFiedlerCapped, 1)
	}
	// Power iteration on σI−L converges to the LARGEST shifted eigenvalues
	// = the smallest Laplacian ones; the Gram–Schmidt sweep keeps vector j
	// orthogonal to the previous, so xs comes out eigenvalue-ordered.
	return xs, iters
}

func deflate(x []float64) {
	var sum float64
	for _, v := range x {
		sum += v
	}
	mean := sum / float64(len(x))
	for i := range x {
		x[i] -= mean
	}
}

func normalize(x []float64, salt int) {
	var norm2 float64
	for _, v := range x {
		norm2 += v * v
	}
	norm := math.Sqrt(norm2)
	if norm == 0 {
		for i := range x {
			x[i] = math.Sin(float64(i+1) * float64(salt+2))
		}
		deflate(x)
		norm2 = 0
		for _, v := range x {
			norm2 += v * v
		}
		norm = math.Sqrt(norm2)
	}
	inv := 1 / norm
	for i := range x {
		x[i] *= inv
	}
}

func dotVec(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// DrawOptions configures multilevel spectral drawing.
type DrawOptions struct {
	Coarsener coarsen.Coarsener
	Fiedler   FiedlerOptions
	Seed      uint64
}

// SpectralCoordinates computes 2D layout coordinates for g: the
// eigenvectors of the second- and third-smallest Laplacian eigenvalues,
// computed multilevel (coarsest solve, interpolate, re-refine) exactly
// like the spectral bisection pipeline — the "spectral drawing" use the
// paper points at in Section III.C.
func SpectralCoordinates(g *graph.Graph, opt DrawOptions) ([][2]float64, error) {
	n := g.N()
	if n == 0 {
		return nil, nil
	}
	if opt.Coarsener.Mapper == nil {
		opt.Coarsener.Mapper = coarsen.HEC{}
	}
	if opt.Coarsener.Builder == nil {
		opt.Coarsener.Builder = coarsen.BuildSort{}
	}
	h, err := opt.Coarsener.Run(g)
	if err != nil {
		return nil, err
	}
	xs, _ := coarsen.Uncoarsen(h, h.Levels(), nil, "drawing", par.Exec{P: opt.Coarsener.Workers, Span: obs.Ambient()},
		func(i int, lg *graph.Graph, xs [][]float64, ex par.Exec) ([][]float64, error) {
			seed := opt.Seed
			if i == h.Levels() {
				seed ^= 0xd4a3
			}
			xs, _ = fiedlerK(lg, 2, xs, seed, opt.Fiedler, ex.Span)
			return xs, nil
		},
		func(xs [][]float64, m []int32, ex par.Exec) [][]float64 {
			fine := make([][]float64, len(xs))
			for j, x := range xs {
				fine[j] = coarsen.Project(x, m, ex)
			}
			return fine
		})
	coords := make([][2]float64, n)
	for u := 0; u < n; u++ {
		coords[u] = [2]float64{xs[0][u], xs[1][u]}
	}
	return coords, nil
}
