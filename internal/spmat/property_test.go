package spmat

import (
	"math"
	"testing"
	"testing/quick"

	"mlcg/internal/graph"
	"mlcg/internal/par"
)

func TestSpGEMMAssociativity(t *testing.T) {
	f := func(s1, s2, s3 uint64) bool {
		a := randCSR(8, 10, 3, s1)
		b := randCSR(10, 9, 3, s2)
		c := randCSR(9, 7, 3, s3)
		left := SpGEMM(SpGEMM(a, b, par.Exec{P: 2}), c, par.Exec{P: 2})
		right := SpGEMM(a, SpGEMM(b, c, par.Exec{P: 2}), par.Exec{P: 2})
		return denseEqual(dense(left), dense(right), 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestLaplacianPositiveSemidefinite(t *testing.T) {
	// x^T L x = Σ w(u,v)(x_u − x_v)² ≥ 0 for any x and any graph.
	f := func(seed uint64) bool {
		rng := par.NewRNG(seed)
		n := rng.Intn(25) + 2
		var e []graph.Edge
		for i := 0; i < n-1; i++ {
			e = append(e, graph.Edge{U: int32(i), V: int32(i + 1), W: int64(rng.Intn(6) + 1)})
		}
		for i := 0; i < n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				e = append(e, graph.Edge{U: int32(u), V: int32(v), W: int64(rng.Intn(6) + 1)})
			}
		}
		g := graph.MustFromEdges(n, e)
		l := Laplacian(g)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.Float64()*4 - 2
		}
		y := make([]float64, n)
		l.MulVec(y, x, 1)
		var quad float64
		for i := range x {
			quad += x[i] * y[i]
		}
		return quad >= -1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestTransposeOfSymmetricIsIdentity(t *testing.T) {
	// Adjacency matrices of our undirected graphs are symmetric: Aᵀ = A.
	g := graph.MustFromEdges(6, []graph.Edge{
		{U: 0, V: 1, W: 2}, {U: 1, V: 2, W: 3}, {U: 2, V: 3, W: 1},
		{U: 3, V: 4, W: 5}, {U: 4, V: 5, W: 2}, {U: 5, V: 0, W: 7}, {U: 1, V: 4, W: 9},
	})
	a := FromGraph(g)
	at := a.Transpose(par.Exec{P: 2})
	if !denseEqual(dense(a), dense(at), 0) {
		t.Error("adjacency transpose differs from itself")
	}
}

func TestSpGEMMWithIdentity(t *testing.T) {
	a := randCSR(12, 12, 4, 3)
	// Identity matrix.
	n := 12
	rowptr := make([]int64, n+1)
	col := make([]int32, n)
	val := make([]float64, n)
	for i := 0; i < n; i++ {
		rowptr[i+1] = int64(i + 1)
		col[i] = int32(i)
		val[i] = 1
	}
	id := &CSR{Rows: int32(n), Cols: int32(n), Rowptr: rowptr, Col: col, Val: val}
	if !denseEqual(dense(SpGEMM(a, id, par.Exec{P: 2})), dense(a), 1e-12) {
		t.Error("A·I != A")
	}
	if !denseEqual(dense(SpGEMM(id, a, par.Exec{P: 2})), dense(a), 1e-12) {
		t.Error("I·A != A")
	}
}

func TestMulVecLinearity(t *testing.T) {
	a := randCSR(20, 20, 4, 9)
	rng := par.NewRNG(4)
	x := make([]float64, 20)
	y := make([]float64, 20)
	for i := range x {
		x[i] = rng.Float64()
		y[i] = rng.Float64()
	}
	ax := make([]float64, 20)
	ay := make([]float64, 20)
	axy := make([]float64, 20)
	a.MulVec(ax, x, 1)
	a.MulVec(ay, y, 1)
	xy := make([]float64, 20)
	for i := range xy {
		xy[i] = 2*x[i] + 3*y[i]
	}
	a.MulVec(axy, xy, 1)
	for i := range axy {
		want := 2*ax[i] + 3*ay[i]
		if math.Abs(axy[i]-want) > 1e-9 {
			t.Fatalf("linearity broken at %d: %v vs %v", i, axy[i], want)
		}
	}
}
