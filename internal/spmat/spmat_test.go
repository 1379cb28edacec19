package spmat

import (
	"math"
	"testing"
	"testing/quick"

	"mlcg/internal/graph"
	"mlcg/internal/par"
)

// dense converts a CSR into a dense matrix for reference comparisons.
func dense(a *CSR) [][]float64 {
	d := make([][]float64, a.Rows)
	for i := range d {
		d[i] = make([]float64, a.Cols)
	}
	for i := int32(0); i < a.Rows; i++ {
		cols, vals := a.Row(i)
		for k, c := range cols {
			d[i][c] += vals[k]
		}
	}
	return d
}

// denseMul multiplies dense matrices.
func denseMul(a, b [][]float64) [][]float64 {
	n, inner, m := len(a), len(b), len(b[0])
	c := make([][]float64, n)
	for i := range c {
		c[i] = make([]float64, m)
		for k := 0; k < inner; k++ {
			if a[i][k] != 0 {
				for j := 0; j < m; j++ {
					c[i][j] += a[i][k] * b[k][j]
				}
			}
		}
	}
	return c
}

func denseEqual(a, b [][]float64, eps float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Abs(a[i][j]-b[i][j]) > eps {
				return false
			}
		}
	}
	return true
}

// randCSR builds a random sparse matrix.
func randCSR(rows, cols, nnzPerRow int, seed uint64) *CSR {
	rng := par.NewRNG(seed)
	rowptr := make([]int64, rows+1)
	var col []int32
	var val []float64
	for i := 0; i < rows; i++ {
		k := rng.Intn(nnzPerRow + 1)
		for j := 0; j < k; j++ {
			col = append(col, int32(rng.Intn(cols)))
			val = append(val, float64(rng.Intn(9)+1))
		}
		rowptr[i+1] = int64(len(col))
	}
	return &CSR{Rows: int32(rows), Cols: int32(cols), Rowptr: rowptr, Col: col, Val: val}
}

func TestFromGraphAndValidate(t *testing.T) {
	g := graph.MustFromEdges(3, []graph.Edge{{U: 0, V: 1, W: 2}, {U: 1, V: 2, W: 3}})
	a := FromGraph(g)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if a.NNZ() != 4 {
		t.Errorf("nnz = %d, want 4", a.NNZ())
	}
	d := dense(a)
	if d[0][1] != 2 || d[1][0] != 2 || d[1][2] != 3 || d[2][1] != 3 {
		t.Errorf("bad adjacency matrix %v", d)
	}
	if d[0][0] != 0 || d[0][2] != 0 {
		t.Errorf("unexpected entries %v", d)
	}
}

func TestValidateCatchesBadCSR(t *testing.T) {
	a := randCSR(4, 4, 3, 1)
	a.Col[0] = 99
	if a.Validate() == nil {
		t.Error("out-of-range column not caught")
	}
	b := randCSR(4, 4, 3, 2)
	b.Rowptr[2] = -1
	if b.Validate() == nil {
		t.Error("decreasing rowptr not caught")
	}
}

func TestMulVecAgainstDense(t *testing.T) {
	for _, p := range []int{1, 4} {
		a := randCSR(50, 40, 6, 3)
		x := make([]float64, 40)
		rng := par.NewRNG(7)
		for i := range x {
			x[i] = rng.Float64()
		}
		y := make([]float64, 50)
		a.MulVec(y, x, p)
		d := dense(a)
		for i := 0; i < 50; i++ {
			var want float64
			for j := 0; j < 40; j++ {
				want += d[i][j] * x[j]
			}
			if math.Abs(y[i]-want) > 1e-9 {
				t.Fatalf("p=%d row %d: got %v want %v", p, i, y[i], want)
			}
		}
	}
}

func TestMulVecPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a := randCSR(3, 3, 2, 1)
	a.MulVec(make([]float64, 2), make([]float64, 3), 1)
}

func TestTransposeAgainstDense(t *testing.T) {
	for _, p := range []int{1, 4} {
		a := randCSR(30, 50, 5, 11)
		at := a.Transpose(par.Exec{P: p})
		if err := at.Validate(); err != nil {
			t.Fatal(err)
		}
		d, dt := dense(a), dense(at)
		for i := range d {
			for j := range d[i] {
				if d[i][j] != dt[j][i] {
					t.Fatalf("p=%d: transpose mismatch at %d,%d", p, i, j)
				}
			}
		}
		// Columns within each transposed row must be sorted.
		for i := int32(0); i < at.Rows; i++ {
			cols, _ := at.Row(i)
			for k := 1; k < len(cols); k++ {
				if cols[k-1] > cols[k] {
					t.Fatalf("p=%d: transpose row %d unsorted", p, i)
				}
			}
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	a := randCSR(20, 25, 4, 13)
	att := a.Transpose(par.Exec{P: 2}).Transpose(par.Exec{P: 2})
	if !denseEqual(dense(a), dense(att), 0) {
		t.Error("double transpose is not the identity")
	}
}

func TestSpGEMMAgainstDense(t *testing.T) {
	for _, p := range []int{1, 4} {
		a := randCSR(25, 30, 5, 17)
		b := randCSR(30, 20, 5, 19)
		c := SpGEMM(a, b, par.Exec{P: p})
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
		if !denseEqual(dense(c), denseMul(dense(a), dense(b)), 1e-9) {
			t.Fatalf("p=%d: SpGEMM disagrees with dense multiply", p)
		}
		// Symbolic count must be exact: no explicit zero-padding rows.
		for i := int32(0); i < c.Rows; i++ {
			cols, _ := c.Row(i)
			seen := map[int32]bool{}
			for _, cc := range cols {
				if seen[cc] {
					t.Fatalf("duplicate column %d in output row %d", cc, i)
				}
				seen[cc] = true
			}
		}
	}
}

func TestSpGEMMQuick(t *testing.T) {
	f := func(seedA, seedB uint64) bool {
		a := randCSR(12, 15, 4, seedA)
		b := randCSR(15, 10, 4, seedB)
		c := SpGEMM(a, b, par.Exec{P: 2})
		return denseEqual(dense(c), denseMul(dense(a), dense(b)), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSpGEMMDimensionPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SpGEMM(randCSR(3, 4, 2, 1), randCSR(5, 3, 2, 2), par.Exec{P: 1})
}

func TestAggregationMatrix(t *testing.T) {
	m := []int32{0, 0, 1, 2, 1}
	pm := AggregationMatrix(m, 3, 5)
	if err := pm.Validate(); err != nil {
		t.Fatal(err)
	}
	d := dense(pm)
	for u, a := range m {
		if d[a][u] != 1 {
			t.Errorf("P[%d][%d] = %v, want 1", a, u, d[a][u])
		}
	}
	if pm.NNZ() != 5 {
		t.Errorf("nnz = %d, want 5", pm.NNZ())
	}
}

func TestPAPtCollapsesAggregates(t *testing.T) {
	// Path 0-1-2-3 with M = [0,0,1,1]: coarse graph should be two vertices
	// joined by weight 1 plus diagonal self-weights from internal edges.
	g := graph.MustFromEdges(4, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 2, V: 3, W: 1}})
	a := FromGraph(g)
	c := PAPt(a, []int32{0, 0, 1, 1}, 2, par.Exec{P: 2})
	d := dense(c)
	if d[0][1] != 1 || d[1][0] != 1 {
		t.Errorf("cross weight = %v/%v, want 1", d[0][1], d[1][0])
	}
	// Diagonal holds 2*sum of internal edge weights.
	if d[0][0] != 2 || d[1][1] != 2 {
		t.Errorf("diagonal = %v/%v, want 2", d[0][0], d[1][1])
	}
}

func TestLaplacian(t *testing.T) {
	g := graph.MustFromEdges(3, []graph.Edge{{U: 0, V: 1, W: 2}, {U: 1, V: 2, W: 3}})
	l := Laplacian(g)
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	d := dense(l)
	want := [][]float64{{2, -2, 0}, {-2, 5, -3}, {0, -3, 3}}
	if !denseEqual(d, want, 0) {
		t.Errorf("Laplacian = %v, want %v", d, want)
	}
	// L·1 = 0 for any graph.
	ones := []float64{1, 1, 1}
	y := make([]float64, 3)
	l.MulVec(y, ones, 1)
	for i, v := range y {
		if v != 0 {
			t.Errorf("L·1 [%d] = %v, want 0", i, v)
		}
	}
}

func TestLaplacianNullVectorQuick(t *testing.T) {
	f := func(seed uint64) bool {
		rng := par.NewRNG(seed)
		n := rng.Intn(30) + 2
		var edges []graph.Edge
		for i := 0; i < n-1; i++ {
			edges = append(edges, graph.Edge{U: int32(i), V: int32(i + 1), W: int64(rng.Intn(5) + 1)})
		}
		for i := 0; i < n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				edges = append(edges, graph.Edge{U: int32(u), V: int32(v), W: int64(rng.Intn(5) + 1)})
			}
		}
		g := graph.MustFromEdges(n, edges)
		l := Laplacian(g)
		x := make([]float64, n)
		for i := range x {
			x[i] = 1
		}
		y := make([]float64, n)
		l.MulVec(y, x, 1)
		for _, v := range y {
			if math.Abs(v) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestHashSetAndMapGrowth(t *testing.T) {
	hs := newHashSet(4)
	for i := int32(0); i < 1000; i++ {
		hs.insert(i % 500) // duplicates on second half
	}
	if hs.size != 500 {
		t.Errorf("set size = %d, want 500", hs.size)
	}
	hm := newHashMap(4)
	for i := int32(0); i < 1000; i++ {
		hm.add(i%500, 1)
	}
	if hm.size != 500 {
		t.Errorf("map size = %d, want 500", hm.size)
	}
	var total float64
	for s := range hm.keys[:hm.cap] {
		if hm.occupied(s) {
			total += hm.vals[s]
		}
	}
	if total != 1000 {
		t.Errorf("accumulated total = %v, want 1000", total)
	}

	// Epoch reset: O(1) clear must hide every previous entry.
	hm.reset()
	for s := range hm.keys[:hm.cap] {
		if hm.occupied(s) {
			t.Fatalf("slot %d still occupied after reset", s)
		}
	}
	hm.add(7, 2.5)
	if hm.size != 1 {
		t.Errorf("size after reset+add = %d, want 1", hm.size)
	}

	// resetSized pins the logical capacity as a function of n alone.
	hm.resetSized(3)
	if hm.cap != 16 {
		t.Errorf("resetSized(3) cap = %d, want 16", hm.cap)
	}
	hm.resetSized(100)
	if hm.cap != 256 {
		t.Errorf("resetSized(100) cap = %d, want 256", hm.cap)
	}
	for i := int32(0); i < 100; i++ {
		hm.add(i, 1)
	}
	if hm.size != 100 {
		t.Errorf("size after resetSized = %d, want 100", hm.size)
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 4, 5: 8, 64: 64, 65: 128}
	for in, want := range cases {
		if got := nextPow2(in); got != want {
			t.Errorf("nextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}
