package partition

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"mlcg/internal/coarsen"
	"mlcg/internal/gen"
	"mlcg/internal/graph"
	"mlcg/internal/obs"
	"mlcg/internal/par"
	"mlcg/internal/spmat"
)

// oracleCase is one input of the reference comparisons: a graph and, when
// it is a level of a hierarchy, the map to the next coarser level and a
// vector there to project as a warm start.
type oracleCase struct {
	name   string
	g      *graph.Graph
	m      []int32
	coarse []float64
}

// oracleCases covers both operator paths and the degenerate inputs: the
// unit-weight finest level and the weighted coarse levels of a real HEC
// hierarchy, a weighted random graph, an edgeless graph (σ = 1), a graph
// with isolated vertices, and K2, where every multiply of a normalized
// vector yields zero and the ramp restart runs inside the loop.
func oracleCases(t testing.TB) []oracleCase {
	t.Helper()
	c := coarsen.Coarsener{Mapper: coarsen.HEC{}, Builder: coarsen.BuildSort{}, Seed: 11, Workers: 1}
	h, err := c.Run(gen.Grid2D(72, 64))
	if err != nil {
		t.Fatal(err)
	}
	var cases []oracleCase
	for i, g := range h.Graphs {
		oc := oracleCase{name: fmt.Sprintf("hec-level%d", i), g: g}
		if i < len(h.Maps) {
			oc.m = h.Maps[i]
			oc.coarse, _ = fiedlerRef(h.Graphs[i+1], nil, 5, FiedlerOptions{MaxIter: 40, Workers: 1})
		}
		cases = append(cases, oc)
	}
	var path []graph.Edge
	for u := int32(0); u < 19; u++ {
		path = append(path, graph.Edge{U: u, V: u + 1, W: 1})
	}
	for _, oc := range []oracleCase{
		{name: "weighted-random", g: randGraph(700, 9)},
		{name: "edgeless", g: graph.MustFromEdges(10, nil)},
		{name: "isolated-vertices", g: graph.MustFromEdges(25, path)},
		{name: "k2", g: graph.MustFromEdges(2, []graph.Edge{{U: 0, V: 1, W: 3}})},
	} {
		// A synthetic coarser level: pairs of consecutive vertices.
		n := oc.g.N()
		oc.m = make([]int32, n)
		oc.coarse = make([]float64, (n+1)/2)
		for u := range oc.m {
			oc.m[u] = int32(u / 2)
		}
		for i := range oc.coarse {
			oc.coarse[i] = float64(par.Mix64(uint64(i))%1000)/500 - 1
		}
		cases = append(cases, oc)
	}
	return cases
}

// startVectors returns the warm starts each case is solved from: none
// (the seeded pseudo-random start), the projection of the coarser-level
// vector, and a constant vector (the ramp-restart path).
func (oc oracleCase) startVectors() map[string][]float64 {
	n := oc.g.N()
	starts := map[string][]float64{"nil": nil}
	if oc.m != nil {
		xf := make([]float64, n)
		for u := range oc.m {
			xf[u] = oc.coarse[oc.m[u]]
		}
		starts["projected"] = xf
	}
	constant := make([]float64, n)
	for i := range constant {
		constant[i] = 0.25
	}
	starts["constant"] = constant
	return starts
}

// oracleOptions: a tolerance a short run cannot reach (runs end at
// MaxIter) and a loose one most runs reach.
var oracleOptions = []FiedlerOptions{
	{Tol: 1e-10, MaxIter: 25},
	{Tol: 1e-3, MaxIter: 150},
}

var oracleWorkers = []int{1, 2, 4, 8}

// sameBits reports the first entry where two vectors differ bitwise.
func sameBits(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("length %d, want %d", len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("entry %d = %v (%#x), want %v (%#x)",
				i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
	return nil
}

// TestFiedlerMatchesReference pins the matrix-free Fiedler to the explicit
// Laplacian iteration it replaced: every entry of the vector, bit for bit,
// and the iteration count, at every worker count.
func TestFiedlerMatchesReference(t *testing.T) {
	var hitTol, hitMax int
	for _, oc := range oracleCases(t) {
		for start, x0 := range oc.startVectors() {
			for _, opt := range oracleOptions {
				for _, p := range oracleWorkers {
					opt.Workers = p
					want, wantIters := fiedlerRef(oc.g, x0, 3, opt)
					got, iters := Fiedler(oc.g, x0, 3, opt)
					if iters != wantIters {
						t.Fatalf("%s/%s/%+v: %d iterations, reference %d", oc.name, start, opt, iters, wantIters)
					}
					if err := sameBits(got, want); err != nil {
						t.Fatalf("%s/%s/%+v: %v", oc.name, start, opt, err)
					}
					if iters < opt.MaxIter {
						hitTol++
					} else {
						hitMax++
					}
				}
			}
		}
	}
	if hitTol == 0 || hitMax == 0 {
		t.Errorf("coverage: %d runs met the tolerance, %d ran to MaxIter; want both", hitTol, hitMax)
	}
}

// TestFiedlerKMatchesReference is the same pin for FiedlerK with k = 2,
// whose warm starts also include a partial seed (one vector seeded, the
// other pseudo-random) and constant seeds (the normalize restart path).
func TestFiedlerKMatchesReference(t *testing.T) {
	var hitTol, hitMax int
	for _, oc := range oracleCases(t) {
		starts := map[string][][]float64{"nil": nil}
		for name, x0 := range oc.startVectors() {
			if x0 != nil {
				starts[name] = [][]float64{x0, x0}
			}
		}
		if xf := oc.startVectors()["projected"]; xf != nil {
			starts["partial"] = [][]float64{xf}
		}
		for start, x0 := range starts {
			for _, opt := range oracleOptions {
				for _, p := range oracleWorkers {
					opt.Workers = p
					want, wantIters := fiedlerKRef(oc.g, 2, x0, 3, opt)
					got, iters := FiedlerK(oc.g, 2, x0, 3, opt)
					if iters != wantIters {
						t.Fatalf("%s/%s/%+v: %d iterations, reference %d", oc.name, start, opt, iters, wantIters)
					}
					for j := range want {
						if err := sameBits(got[j], want[j]); err != nil {
							t.Fatalf("%s/%s/%+v: vector %d: %v", oc.name, start, opt, j, err)
						}
					}
					if iters < opt.MaxIter {
						hitTol++
					} else {
						hitMax++
					}
				}
			}
		}
	}
	if hitTol == 0 || hitMax == 0 {
		t.Errorf("coverage: %d runs met the tolerance, %d ran to MaxIter; want both", hitTol, hitMax)
	}
}

// TestLaplacianOpMatchesSpMV checks one apply of the operator against the
// explicit Laplacian's SpMV followed by the shift, on vectors holding both
// signed zeros, so even the sign of a zero row sum must agree.
func TestLaplacianOpMatchesSpMV(t *testing.T) {
	var unit, weighted int
	for _, oc := range oracleCases(t) {
		n := oc.g.N()
		x := make([]float64, n)
		for i := range x {
			switch i % 4 {
			case 0:
				x[i] = math.Copysign(0, -1)
			case 1:
				x[i] = 0
			default:
				x[i] = float64(par.Mix64(uint64(i))%2000)/1000 - 1
			}
		}
		l := spmat.Laplacian(oc.g)
		var sigma float64
		for i := 0; i < n; i++ {
			if d := l.Val[l.Rowptr[i]]; 2*d > sigma {
				sigma = 2 * d
			}
		}
		if sigma == 0 {
			sigma = 1
		}
		want := make([]float64, n)
		l.MulVec(want, x, 1)
		for i := range want {
			want[i] = sigma*x[i] - want[i]
		}
		if newLaplacianOp(oc.g, par.Exec{P: 1}).deg == nil {
			unit++
		} else {
			weighted++
		}
		for _, p := range oracleWorkers {
			op := newLaplacianOp(oc.g, par.Exec{P: p})
			if op.sigma != sigma {
				t.Fatalf("%s: σ = %v, want %v", oc.name, op.sigma, sigma)
			}
			got := make([]float64, n)
			op.apply(got, x)
			if err := sameBits(got, want); err != nil {
				t.Fatalf("%s p=%d: %v", oc.name, p, err)
			}
		}
	}
	if unit == 0 || weighted == 0 {
		t.Errorf("coverage: %d unit-weight and %d weighted graphs; want both", unit, weighted)
	}
}

// FuzzFiedlerMatchesReference runs both solvers and their references on
// small random weighted graphs: up to 24 vertices, weights 1–4, MaxIter at
// most 50, every start kind, a tight or a loose tolerance.
func FuzzFiedlerMatchesReference(f *testing.F) {
	f.Add([]byte{5, 10, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3}, uint64(1))
	f.Add([]byte{1, 49, 7}, uint64(2))
	f.Add([]byte{2, 30, 5, 0, 1, 0}, uint64(3))
	f.Add([]byte{16, 50, 14, 0, 1, 3, 1, 2, 0, 2, 3, 1, 3, 0, 2, 7, 8, 0, 9, 12, 3}, uint64(4))
	f.Fuzz(func(t *testing.T, data []byte, seed uint64) {
		if len(data) < 3 {
			return
		}
		n := int(data[0])%24 + 1
		mode := data[2]
		opt := FiedlerOptions{
			Tol:     []float64{1e-10, 1e-3}[mode%2],
			MaxIter: int(data[1])%50 + 1,
			Workers: oracleWorkers[(mode/2)%4],
		}
		var edges []graph.Edge
		for i := 3; i+2 < len(data); i += 3 {
			edges = append(edges, graph.Edge{
				U: int32(int(data[i]) % n), V: int32(int(data[i+1]) % n), W: int64(data[i+2]%4) + 1,
			})
		}
		g := graph.MustFromEdges(n, edges)
		var x0 []float64
		switch (mode / 8) % 3 {
		case 1:
			x0 = make([]float64, n)
			for i := range x0 {
				x0[i] = float64(par.Mix64(seed+uint64(i))%64) - 32
			}
		case 2:
			x0 = make([]float64, n)
			for i := range x0 {
				x0[i] = 1
			}
		}
		want, wantIters := fiedlerRef(g, x0, seed, opt)
		got, iters := Fiedler(g, x0, seed, opt)
		if iters != wantIters {
			t.Fatalf("Fiedler: %d iterations, reference %d", iters, wantIters)
		}
		if err := sameBits(got, want); err != nil {
			t.Fatalf("Fiedler: %v", err)
		}
		var xs0 [][]float64
		if x0 != nil {
			xs0 = [][]float64{x0}
		}
		wantK, wantItersK := fiedlerKRef(g, 2, xs0, seed, opt)
		gotK, itersK := FiedlerK(g, 2, xs0, seed, opt)
		if itersK != wantItersK {
			t.Fatalf("FiedlerK: %d iterations, reference %d", itersK, wantItersK)
		}
		for j := range wantK {
			if err := sameBits(gotK[j], wantK[j]); err != nil {
				t.Fatalf("FiedlerK vector %d: %v", j, err)
			}
		}
	})
}

// TestSpectralBisectDeterminismAcrossWorkers pins multilevel spectral
// bisection to the worker-count determinism contract: the same partition
// and cut at p = 1, 2, 4, 8.
func TestSpectralBisectDeterminismAcrossWorkers(t *testing.T) {
	for _, inst := range []struct {
		name string
		g    *graph.Graph
	}{
		{"grid2d", gen.Grid2D(60, 50)},
		{"trimesh", gen.TriMesh(40, 45, 3)},
		{"rgg", gen.RGG(2500, 0.035, 5)},
	} {
		var want *Result
		for _, p := range oracleWorkers {
			sb := &SpectralBisector{
				Coarsener: coarsen.Coarsener{Mapper: coarsen.HEC{}, Builder: coarsen.BuildSort{}, Seed: 7, Workers: p},
				Fiedler:   FiedlerOptions{MaxIter: 200, Workers: p},
				Seed:      7,
			}
			res, err := sb.Bisect(inst.g)
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = res
				continue
			}
			if res.Cut != want.Cut {
				t.Fatalf("%s: cut %d at p=%d, %d at p=1", inst.name, res.Cut, p, want.Cut)
			}
			for u := range res.Part {
				if res.Part[u] != want.Part[u] {
					t.Fatalf("%s: part[%d] differs at p=%d", inst.name, u, p)
				}
			}
		}
	}
}

// TestFiedlerAllocsIndependentOfIterations pins the solver's allocations
// to its set-up: at one worker an iteration allocates nothing, so 50
// iterations allocate exactly what one does.
func TestFiedlerAllocsIndependentOfIterations(t *testing.T) {
	weighted := randGraph(600, 4)
	for _, g := range []*graph.Graph{gridGraph(30, 30), weighted} {
		allocs := func(maxIter int) float64 {
			opt := FiedlerOptions{Tol: 1e-300, MaxIter: maxIter, Workers: 1}
			// A collection that starts mid-measurement adds the runtime's
			// own mallocs to the count, so start from a fresh cycle.
			runtime.GC()
			return testing.AllocsPerRun(5, func() {
				if _, iters := Fiedler(g, nil, 1, opt); iters != maxIter {
					t.Fatalf("stopped after %d iterations, want %d", iters, maxIter)
				}
			})
		}
		if one, fifty := allocs(1), allocs(50); one != fifty {
			t.Errorf("n=%d: %v allocs at MaxIter 1, %v at MaxIter 50", g.N(), one, fifty)
		}
	}
}

// TestFiedlerCounters checks the solvers' telemetry: one "fiedler" span
// per call, holding the exact iteration count, the nonzeros touched, 2m+n
// per multiply, and fiedler_capped = 1 exactly when the call stopped at
// MaxIter without meeting tol. A solve that converges on its last allowed
// iteration also reports MaxIter iterations; it must not count as capped.
func TestFiedlerCounters(t *testing.T) {
	g := randGraph(300, 2)
	loose := FiedlerOptions{Tol: 1e-3, MaxIter: 10000, Workers: 2}
	_, conv := Fiedler(g, nil, 1, loose)
	_, convK := FiedlerK(g, 2, nil, 1, loose)
	if conv < 2 || conv >= loose.MaxIter || convK < 2 || convK >= loose.MaxIter {
		t.Fatalf("loose solves took %d and %d iterations; want convergence after at least 2", conv, convK)
	}
	type call struct {
		k       int // 0 = Fiedler
		tol     float64
		maxIter int
		capped  int64
	}
	calls := []call{
		{0, 0, 40, 1}, {2, 0, 30, 1},
		{0, loose.Tol, conv, 0}, {0, loose.Tol, conv - 1, 1},
		{2, loose.Tol, convK, 0}, {2, loose.Tol, convK - 1, 1},
	}
	tr := obs.StartTrace("test")
	iters := make([]int, len(calls))
	for i, c := range calls {
		opt := FiedlerOptions{Tol: c.tol, MaxIter: c.maxIter, Workers: 2}
		if c.k == 0 {
			_, iters[i] = Fiedler(g, nil, 1, opt)
		} else {
			_, iters[i] = FiedlerK(g, c.k, nil, 1, opt)
		}
		if iters[i] != c.maxIter {
			t.Fatalf("call %d: %d iterations, want MaxIter %d", i, iters[i], c.maxIter)
		}
	}
	tr.Stop()
	spans := tr.Root.Children()
	if len(spans) != len(calls) {
		t.Fatalf("want %d fiedler spans, got %d", len(calls), len(spans))
	}
	size := g.Size()
	var capped int64
	for i, c := range calls {
		if spans[i].Name() != "fiedler" {
			t.Fatalf("span %d is %q, want fiedler", i, spans[i].Name())
		}
		mult := int64(1)
		if c.k > 0 {
			mult = int64(c.k)
		}
		want := map[string]int64{
			"fiedler_iters":  int64(iters[i]),
			"spmv_nnz":       mult * int64(iters[i]) * size,
			"fiedler_capped": c.capped,
		}
		got := spans[i].Counters()
		for name, v := range want {
			if got[name] != v {
				t.Errorf("span %d: %s = %d, want %d", i, name, got[name], v)
			}
		}
		capped += c.capped
	}
	if got := tr.Root.Counters()["fiedler_capped"]; got != capped {
		t.Errorf("trace total fiedler_capped = %d, want %d", got, capped)
	}
}
