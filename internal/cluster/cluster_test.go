package cluster

import (
	"math"
	"slices"
	"testing"

	"mlcg/internal/coarsen"
	"mlcg/internal/gen"
	"mlcg/internal/graph"
	"mlcg/internal/par"
)

// planted builds k dense communities joined by single bridges.
func planted(k, size int, seed uint64) *graph.Graph {
	rng := par.NewRNG(seed)
	n := k * size
	var e []graph.Edge
	for c := 0; c < k; c++ {
		base := c * size
		for i := 0; i < size; i++ {
			for t := 0; t < 4; t++ {
				j := rng.Intn(size)
				if j != i {
					e = append(e, graph.Edge{U: int32(base + i), V: int32(base + j), W: 4})
				}
			}
		}
		e = append(e, graph.Edge{
			U: int32(base + rng.Intn(size)),
			V: int32(((c+1)%k)*size + rng.Intn(size)), W: 1,
		})
	}
	g, err := graph.FromEdges(n, e)
	if err != nil {
		panic(err)
	}
	lcc, _ := g.LargestComponent()
	return lcc
}

func TestModularityKnownValues(t *testing.T) {
	// Two triangles joined by one edge, clustered by triangle:
	// m = 7, in = 3 per cluster, tot = 7 per cluster.
	// Q = 2*(3/7 - (7/14)^2) = 6/7 - 1/2.
	var e []graph.Edge
	for _, tri := range [][3]int32{{0, 1, 2}, {3, 4, 5}} {
		e = append(e, graph.Edge{U: tri[0], V: tri[1], W: 1},
			graph.Edge{U: tri[1], V: tri[2], W: 1},
			graph.Edge{U: tri[2], V: tri[0], W: 1})
	}
	e = append(e, graph.Edge{U: 2, V: 3, W: 1})
	g := graph.MustFromEdges(6, e)
	labels := []int32{0, 0, 0, 1, 1, 1}
	want := 6.0/7.0 - 0.5
	if got := Modularity(g, labels); got < want-1e-9 || got > want+1e-9 {
		t.Errorf("modularity = %v, want %v", got, want)
	}
	// Everything in one cluster has modularity 0.
	if got := Modularity(g, make([]int32, 6)); got > 1e-9 || got < -1e-9 {
		t.Errorf("single-cluster modularity = %v, want 0", got)
	}
}

func TestMultilevelRecoversPlantedCommunities(t *testing.T) {
	const k, size = 16, 30
	g := planted(k, size, 7)
	res, err := Multilevel(g, Options{TargetClusters: k, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Labels) != g.N() {
		t.Fatalf("labels cover %d of %d", len(res.Labels), g.N())
	}
	if res.K < int32(k)/2 || res.K > int32(k)*3 {
		t.Errorf("K = %d, want near %d", res.K, k)
	}
	if res.Modularity < 0.6 {
		t.Errorf("modularity %.3f, want > 0.6 on planted communities", res.Modularity)
	}
	// Purity: most vertices of each planted block share a label.
	agree, total := 0, 0
	for c := 0; c < k; c++ {
		counts := map[int32]int{}
		for i := 0; i < size; i++ {
			v := int32(c*size + i)
			if int(v) < g.N() {
				counts[res.Labels[v]]++
				total++
			}
		}
		best := 0
		for _, cnt := range counts {
			if cnt > best {
				best = cnt
			}
		}
		agree += best
	}
	if purity := float64(agree) / float64(total); purity < 0.85 {
		t.Errorf("purity %.3f", purity)
	}
}

func TestRefinementImprovesModularity(t *testing.T) {
	g := planted(8, 25, 9)
	noRefine, err := Multilevel(g, Options{TargetClusters: 8, RefinePasses: -1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	refined, err := Multilevel(g, Options{TargetClusters: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if refined.Modularity < noRefine.Modularity-1e-9 {
		t.Errorf("refinement lowered modularity: %.4f -> %.4f",
			noRefine.Modularity, refined.Modularity)
	}
}

func TestMultilevelWithOtherMappers(t *testing.T) {
	g := planted(6, 20, 11)
	for _, mname := range []string{"gosh", "mis2", "twohop"} {
		mapper, err := coarsen.MapperByName(mname)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Multilevel(g, Options{TargetClusters: 6, Mapper: mapper, Seed: 2})
		if err != nil {
			t.Fatalf("%s: %v", mname, err)
		}
		if res.Modularity < 0.4 {
			t.Errorf("%s: modularity %.3f", mname, res.Modularity)
		}
	}
}

func TestMultilevelOnSuiteInstance(t *testing.T) {
	g := gen.Caveman(40, 12, 0.1, 5)
	res, err := Multilevel(g, Options{TargetClusters: 40, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Modularity <= 0 {
		t.Errorf("modularity %.3f on a community graph", res.Modularity)
	}
	// Labels compact.
	seen := make([]bool, res.K)
	for _, l := range res.Labels {
		if l < 0 || l >= res.K {
			t.Fatalf("label %d out of range", l)
		}
		seen[l] = true
	}
	for c, ok := range seen {
		if !ok {
			t.Errorf("cluster %d empty", c)
		}
	}
}

func TestLouvainRecoversCommunities(t *testing.T) {
	const k, size = 12, 30
	g := planted(k, size, 17)
	res, err := Louvain(g, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Modularity < 0.6 {
		t.Errorf("louvain modularity %.3f", res.Modularity)
	}
	if res.K < 6 || res.K > 40 {
		t.Errorf("K = %d, want near %d", res.K, k)
	}
	if res.Levels < 1 {
		t.Errorf("levels = %d", res.Levels)
	}
}

func TestLouvainBeatsOrMatchesTargeted(t *testing.T) {
	g := planted(10, 25, 21)
	lv, err := Louvain(g, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ml, err := Multilevel(g, Options{TargetClusters: 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Louvain chooses its own K by modularity; it must be competitive.
	if lv.Modularity < 0.9*ml.Modularity {
		t.Errorf("louvain %.3f far below targeted %.3f", lv.Modularity, ml.Modularity)
	}
}

func TestLouvainOnCliqueIsOneCluster(t *testing.T) {
	// A single clique has no community structure: Q stays ~0 and Louvain
	// collapses everything into one cluster (or stops immediately).
	var e []graph.Edge
	for i := int32(0); i < 12; i++ {
		for j := i + 1; j < 12; j++ {
			e = append(e, graph.Edge{U: i, V: j, W: 1})
		}
	}
	g := graph.MustFromEdges(12, e)
	res, err := Louvain(g, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.K > 3 {
		t.Errorf("clique split into %d clusters", res.K)
	}
}

// TestLouvainDeterministic pins Louvain to the worker-count determinism
// contract.
func TestLouvainDeterministic(t *testing.T) {
	checkAcrossWorkers(t, Louvain)
}

// TestMultilevelDeterministic is the same pin for coarsening-driven
// multilevel clustering.
func TestMultilevelDeterministic(t *testing.T) {
	checkAcrossWorkers(t, Multilevel)
}

func TestLouvainEmpty(t *testing.T) {
	res, err := Louvain(graph.MustFromEdges(0, nil), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 0 {
		t.Errorf("K = %d", res.K)
	}
}

func TestMultilevelEmptyGraph(t *testing.T) {
	g := graph.MustFromEdges(0, nil)
	res, err := Multilevel(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 0 || len(res.Labels) != 0 {
		t.Errorf("empty graph result %+v", res)
	}
}

func TestCompactLabels(t *testing.T) {
	labels := []int32{5, 9, 5, 2}
	k := compactLabels(labels)
	if k != 3 {
		t.Errorf("k = %d", k)
	}
	if labels[0] != labels[2] || labels[0] == labels[1] || labels[3] >= 3 {
		t.Errorf("labels %v", labels)
	}
}

// determinismGraphs are the inputs of the worker-count determinism checks:
// planted communities plus two skewed-degree generators.
func determinismGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"planted": planted(8, 20, 31),
		"ba":      gen.BA(2500, 4, 1),
		"rmat":    gen.RMAT(11, 8, 2),
	}
}

// checkAcrossWorkers runs cluster at p = 1, 2, 4, 8 on every determinism
// graph and requires the p = 1 labels, K and bit-identical modularity.
func checkAcrossWorkers(t *testing.T, cluster func(*graph.Graph, Options) (*Result, error)) {
	t.Helper()
	for name, g := range determinismGraphs() {
		var want *Result
		for _, p := range []int{1, 2, 4, 8} {
			res, err := cluster(g, Options{Seed: 4, Workers: p})
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = res
				continue
			}
			if res.K != want.K || math.Float64bits(res.Modularity) != math.Float64bits(want.Modularity) {
				t.Fatalf("%s: p=%d gives K %d Q %v, p=1 K %d Q %v", name, p, res.K, res.Modularity, want.K, want.Modularity)
			}
			if !slices.Equal(res.Labels, want.Labels) {
				t.Fatalf("%s: p=%d labels differ from p=1", name, p)
			}
		}
	}
}

// TestMultilevelSeedsAtTarget: Multilevel seeds from the coarsest level
// that still has TargetClusters vertices. Coarsening stops at the first
// level at or below the target, and on several suite graphs HEC and MIS2
// overshoot it to one or a few vertices in that last step; seeding there
// capped the result at one cluster with modularity 0.
func TestMultilevelSeedsAtTarget(t *testing.T) {
	for _, inst := range gen.DefaultSuite() {
		for _, mapper := range []coarsen.Mapper{coarsen.HEC{}, coarsen.MIS2{}} {
			res, err := Multilevel(inst.Graph, Options{TargetClusters: 16, Mapper: mapper, Seed: 1, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			if res.K < 2 || res.Modularity <= 0 {
				t.Errorf("%s/%s: K = %d, Q = %.4f; want K >= 2 and Q > 0",
					inst.Name, mapper.Name(), res.K, res.Modularity)
			}
		}
	}
}
