package mlcg

// Benchmarks of the substrates the paper's tables and figures are built
// on. The tables and figures themselves are timed by internal/bench, one
// cell runner for every row: `go run ./cmd/mlcg-tables -all` and
// `go run ./cmd/mlcg-figures -all` print them, and DESIGN.md's
// per-experiment index maps each one to its code.

import (
	"sync"
	"testing"

	"mlcg/internal/cluster"
	"mlcg/internal/coarsen"
	"mlcg/internal/gen"
	"mlcg/internal/graph"
	"mlcg/internal/par"
	"mlcg/internal/partition"
	"mlcg/internal/spmat"
)

var (
	suiteOnce sync.Once
	suiteAll  []gen.Instance
)

// benchSuite returns the cached Table I suite.
func benchSuite() []gen.Instance {
	suiteOnce.Do(func() {
		suiteAll = gen.Suite(gen.SuiteOptions{Scale: 1, Seed: 20210517})
	})
	return suiteAll
}

// benchGraph fetches one named suite instance.
func benchGraph(b *testing.B, name string) *graph.Graph {
	b.Helper()
	for _, inst := range benchSuite() {
		if inst.Name == name {
			return inst.Graph
		}
	}
	b.Fatalf("no suite instance %q", name)
	return nil
}

// BenchmarkTable1Suite measures workload generation (Table I analog).
func BenchmarkTable1Suite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		gen.Suite(gen.SuiteOptions{Scale: 1, Seed: uint64(i) + 1})
	}
}

// BenchmarkBuildConstruct isolates a single coarse-graph construction per
// builder on the two skewed representatives (kron21 is the RMAT analog,
// ppa the BA analog) — the construction column of Tables II/III without
// the mapping phase. The HEC mapping is precomputed once; every builder
// reuses one workspace across iterations, exactly as Coarsener.Run drives
// them, so the numbers reflect steady-state levels.
func BenchmarkBuildConstruct(b *testing.B) {
	for _, gname := range []string{"kron21", "ppa"} {
		g := benchGraph(b, gname)
		g.MaterializeVWgt()
		m, err := coarsen.HEC{}.Map(g, 1, par.Exec{P: 0})
		if err != nil {
			b.Fatal(err)
		}
		for _, bname := range coarsen.BuilderNames() {
			builder, err := coarsen.BuilderByName(bname)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(gname+"/"+bname, func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(g.Size())
				ws := coarsen.NewWorkspace()
				for i := 0; i < b.N; i++ {
					if _, err := builder.BuildWith(ws, g, m, par.Exec{P: 0}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig1Fig2Classification measures the heavy-edge classification
// used by the Fig 1 / Fig 2 reproductions.
func BenchmarkFig1Fig2Classification(b *testing.B) {
	g := benchGraph(b, "ppa")
	for i := 0; i < b.N; i++ {
		coarsen.ClassifyHeavyEdges(g, uint64(i))
	}
}

// Micro-benchmarks of the substrates the tables are built on.

func BenchmarkMicroHeavyNeighbors(b *testing.B) {
	g := benchGraph(b, "kron21")
	m, err := coarsen.HEC{}.Map(g, 1, par.Exec{P: 0})
	if err != nil {
		b.Fatal(err)
	}
	_ = m
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (coarsen.HEC{}).Map(g, uint64(i), par.Exec{P: 0}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMicroFMRefine(b *testing.B) {
	g := benchGraph(b, "channel050")
	base := make([]int32, g.N())
	for i := range base {
		base[i] = int32(i % 2)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		part := append([]int32(nil), base...)
		partition.RefineFM(g, part, partition.FMOptions{MaxPasses: 2})
	}
}

func BenchmarkSuitorFamily(b *testing.B) {
	g := benchGraph(b, "delaunay24")
	for _, m := range []coarsen.Mapper{coarsen.Suitor{}, coarsen.BSuitor{}} {
		b.Run(m.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := m.Map(g, uint64(i), par.Exec{P: 0}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkCluster(b *testing.B) {
	g := benchGraph(b, "products")
	for i := 0; i < b.N; i++ {
		if _, err := cluster.Multilevel(g, cluster.Options{TargetClusters: 50, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLouvain(b *testing.B) {
	g := benchGraph(b, "products")
	for i := 0; i < b.N; i++ {
		if _, err := cluster.Louvain(g, cluster.Options{Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSpectralDrawing(b *testing.B) {
	g := benchGraph(b, "channel050")
	for i := 0; i < b.N; i++ {
		if _, err := partition.SpectralCoordinates(g, partition.DrawOptions{
			Fiedler: partition.FiedlerOptions{MaxIter: 100},
			Seed:    uint64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMicroFiedler(b *testing.B) {
	g := benchGraph(b, "channel050")
	for i := 0; i < b.N; i++ {
		partition.Fiedler(g, nil, uint64(i), partition.FiedlerOptions{MaxIter: 50})
	}
}

func BenchmarkKWayPartition(b *testing.B) {
	g := benchGraph(b, "delaunay24")
	for _, k := range []int{4, 8} {
		b.Run(string(rune('0'+k))+"way", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := partition.KWayFM(g, k, partition.KWayOptions{Seed: uint64(i)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Substrate micro-benchmarks (the primitives every table is built on).

func BenchmarkMicroRadixSortPairs(b *testing.B) {
	n := 1 << 18
	keys := make([]uint64, n)
	vals := make([]uint64, n)
	st := uint64(1)
	for i := range keys {
		keys[i] = par.SplitMix64(&st)
		vals[i] = uint64(i)
	}
	work := make([]uint64, n)
	workV := make([]uint64, n)
	b.SetBytes(int64(n * 16))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, keys)
		copy(workV, vals)
		par.RadixSortPairs(work, workV, par.Exec{P: 0})
	}
}

func BenchmarkMicroPrefixSum(b *testing.B) {
	n := 1 << 20
	src := make([]int64, n)
	for i := range src {
		src[i] = int64(i & 7)
	}
	dst := make([]int64, n+1)
	b.SetBytes(int64(n * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		par.PrefixSumInt64(dst, src, par.Exec{P: 0})
	}
}

func BenchmarkMicroRandPerm(b *testing.B) {
	for i := 0; i < b.N; i++ {
		par.RandPerm(1<<17, uint64(i), par.Exec{P: 0})
	}
}

func BenchmarkMicroSpMV(b *testing.B) {
	g := benchGraph(b, "rgg24")
	a := spmat.FromGraph(g)
	x := make([]float64, g.N())
	y := make([]float64, g.N())
	for i := range x {
		x[i] = float64(i%13) / 13
	}
	b.SetBytes(a.NNZ() * 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.MulVec(y, x, 0)
	}
}

func BenchmarkMicroSpGEMMTriple(b *testing.B) {
	g := benchGraph(b, "channel050")
	a := spmat.FromGraph(g)
	m, err := coarsen.HEC{}.Map(g, 1, par.Exec{P: 0})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spmat.PAPt(a, m.M, m.NC, par.Exec{P: 0})
	}
}

func BenchmarkMicroTranspose(b *testing.B) {
	g := benchGraph(b, "kron21")
	a := spmat.FromGraph(g)
	b.SetBytes(a.NNZ() * 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Transpose(par.Exec{P: 0})
	}
}
