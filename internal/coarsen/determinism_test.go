package coarsen

import (
	"fmt"
	"testing"

	"mlcg/internal/gen"
	"mlcg/internal/par"
)

// determinismWorkers is the worker grid every cross-worker test runs on.
var determinismWorkers = []int{1, 2, 4, 8}

func sameMapping(a, b *Mapping) error {
	if a.NC != b.NC {
		return fmt.Errorf("nc differs: %d vs %d", a.NC, b.NC)
	}
	if len(a.M) != len(b.M) {
		return fmt.Errorf("length differs: %d vs %d", len(a.M), len(b.M))
	}
	for i := range a.M {
		if a.M[i] != b.M[i] {
			return fmt.Errorf("label differs at vertex %d: %d vs %d", i, a.M[i], b.M[i])
		}
	}
	return nil
}

// TestMapperDeterminismAcrossWorkers pins the canonical-ID guarantee from
// DESIGN.md: for a fixed (graph, seed), every mapper produces byte-identical
// M and NC at every worker count. (This test used to cover only Workers == 1;
// parallel runs were allowed to drift before the mappers moved to
// deterministic reservations and canonical renumbering.)
func TestMapperDeterminismAcrossWorkers(t *testing.T) {
	g := bigTestGraph(1500, 9)
	for _, mapper := range allMappers(t) {
		t.Run(mapper.Name(), func(t *testing.T) {
			ref, err := mapper.Map(g, 42, par.Exec{P: determinismWorkers[0]})
			if err != nil {
				t.Fatal(err)
			}
			if err := ref.Validate(g.N()); err != nil {
				t.Fatal(err)
			}
			for _, p := range determinismWorkers[1:] {
				m, err := mapper.Map(g, 42, par.Exec{P: p})
				if err != nil {
					t.Fatalf("p=%d: %v", p, err)
				}
				if err := sameMapping(ref, m); err != nil {
					t.Errorf("p=%d: %v", p, err)
				}
			}
			// Run-to-run repeatability at a parallel worker count.
			a, err := mapper.Map(g, 42, par.Exec{P: 4})
			if err != nil {
				t.Fatal(err)
			}
			b, err := mapper.Map(g, 42, par.Exec{P: 4})
			if err != nil {
				t.Fatal(err)
			}
			if err := sameMapping(a, b); err != nil {
				t.Errorf("p=4 run-to-run: %v", err)
			}
		})
	}
}

// TestBuilderDeterminismAcrossWorkers does the same for every builder: the
// constructed CSR must be verbatim identical at every worker count.
func TestBuilderDeterminismAcrossWorkers(t *testing.T) {
	g := bigTestGraph(1000, 11)
	m, err := HEC{}.Map(g, 7, par.Exec{P: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range BuilderNames() {
		t.Run(name, func(t *testing.T) {
			b, _ := BuilderByName(name)
			ref, err := b.Build(g, m, par.Exec{P: determinismWorkers[0]})
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range determinismWorkers[1:] {
				x, err := b.Build(g, m, par.Exec{P: p})
				if err != nil {
					t.Fatalf("p=%d: %v", p, err)
				}
				if !rawEqual(ref, x) {
					t.Errorf("p=%d: coarse CSR differs from p=1", p)
				}
			}
		})
	}
}

// TestSeedSensitivity verifies the opposite: different seeds give
// different mappings (the random ordering actually randomizes).
func TestSeedSensitivity(t *testing.T) {
	g := bigTestGraph(1500, 13)
	for _, mapper := range allMappers(t) {
		a, _ := mapper.Map(g, 1, par.Exec{P: 1})
		b, _ := mapper.Map(g, 2, par.Exec{P: 1})
		same := 0
		for i := range a.M {
			if b.M != nil && i < len(b.M) && a.M[i] == b.M[i] {
				same++
			}
		}
		// MIS2/GOSH-style algorithms keyed on structure more than order
		// may coincide substantially, but full coincidence across 1500
		// vertices would mean the seed is ignored. GOSH orders primarily
		// by degree, so allow it (and the hybrid) near-coincidence.
		if same == len(a.M) && mapper.Name() != "gosh" && mapper.Name() != "goshhec" {
			t.Errorf("%s: seeds 1 and 2 give identical mappings", mapper.Name())
		}
	}
}

// hierarchyMappers are the parallel mappers covered by the end-to-end
// determinism test (the sequential reference mappers are covered implicitly:
// they ignore p beyond the canonical relabel, which the kernel test pins).
var hierarchyMappers = []string{
	"hec", "hec2", "hec3", "hem", "twohop", "mis2", "mis2fast", "gosh",
	"goshhec",
}

// shortSlowMaxN gates the slowest mapper, mis2, in -short mode: instead of
// a blanket cut to the first (regular) instance, it runs every instance at
// or below this vertex count. The threshold keeps the skewed instance of
// the short suite (ppa, n=6000) in play, so short CI still exercises the
// full-resweep D2-MIS mapper in the degree regime where it is weakest.
const shortSlowMaxN = 10000

// TestHierarchyDeterminismAcrossWorkers is the end-to-end guarantee: running
// the full multilevel loop on the generator suite yields byte-identical
// hierarchies — every coarse CSR, every mapping array, every per-level stat —
// for every worker count. This is what makes parallel coarsening results
// reproducible and debuggable across machines.
func TestHierarchyDeterminismAcrossWorkers(t *testing.T) {
	suite := gen.DefaultSuite()
	if testing.Short() {
		// A regular and a skewed instance keep the short run fast while
		// still exercising both degree regimes.
		suite = []gen.Instance{suite[0], suite[len(suite)-1]}
	}
	for _, name := range hierarchyMappers {
		mapper, err := MapperByName(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			insts := suite
			if testing.Short() && name == "mis2" {
				var small []gen.Instance
				for _, inst := range insts {
					if inst.Graph.N() <= shortSlowMaxN {
						small = append(small, inst)
					}
				}
				insts = small
			}
			for _, inst := range insts {
				var ref *Hierarchy
				for _, p := range determinismWorkers {
					c := &Coarsener{Mapper: mapper, Builder: BuildSort{}, Seed: 20210517, Workers: p}
					h, err := c.Run(inst.Graph)
					if err != nil {
						t.Fatalf("%s p=%d: %v", inst.Name, p, err)
					}
					if ref == nil {
						ref = h
						continue
					}
					compareHierarchies(t, inst.Name, p, ref, h)
				}
			}
		})
	}
}

// TestAutoHierarchyDeterminismAcrossWorkers covers the auto policy's one
// worker-count switch: sorted-family levels build with globalsort at p = 1
// and with sort at p >= 2. Both emit the same canonical CSR, so HEC + auto
// hierarchies of the skewed suite must be byte-identical at every worker
// count, and some level must take each side of the switch.
func TestAutoHierarchyDeterminismAcrossWorkers(t *testing.T) {
	picks := map[int]int{}
	for _, inst := range gen.DefaultSuite() {
		if !inst.Skewed {
			continue
		}
		var ref *Hierarchy
		for _, p := range determinismWorkers {
			c := &Coarsener{Mapper: HEC{}, Builder: &AutoConstruct{}, Seed: 20210517, Workers: p}
			h, err := c.Run(inst.Graph)
			if err != nil {
				t.Fatalf("%s p=%d: %v", inst.Name, p, err)
			}
			want := "sort"
			if p == 1 {
				want = "globalsort"
			}
			for _, st := range h.Stats {
				if st.Builder == want {
					picks[p]++
				}
			}
			if ref == nil {
				ref = h
				continue
			}
			compareHierarchies(t, inst.Name, p, ref, h)
		}
	}
	for _, p := range determinismWorkers {
		if picks[p] == 0 {
			t.Errorf("p=%d: no level of the skewed suite took the sorted-family branch", p)
		}
	}
}

// compareHierarchies asserts h is byte-identical to ref.
func compareHierarchies(t *testing.T, inst string, p int, ref, h *Hierarchy) {
	t.Helper()
	if len(ref.Graphs) != len(h.Graphs) || len(ref.Maps) != len(h.Maps) {
		t.Errorf("%s p=%d: shape differs: %d/%d graphs, %d/%d maps",
			inst, p, len(h.Graphs), len(ref.Graphs), len(h.Maps), len(ref.Maps))
		return
	}
	for i := range ref.Graphs {
		if !rawEqual(ref.Graphs[i], h.Graphs[i]) {
			t.Errorf("%s p=%d: level-%d CSR differs", inst, p, i)
			return
		}
	}
	for i := range ref.Maps {
		a, b := ref.Maps[i], h.Maps[i]
		if len(a) != len(b) {
			t.Errorf("%s p=%d: level-%d map length differs", inst, p, i)
			return
		}
		for u := range a {
			if a[u] != b[u] {
				t.Errorf("%s p=%d: level-%d map differs at vertex %d", inst, p, i, u)
				return
			}
		}
	}
	if len(ref.Stats) != len(h.Stats) {
		t.Errorf("%s p=%d: stats length differs", inst, p)
		return
	}
	for i := range ref.Stats {
		a, b := ref.Stats[i], h.Stats[i]
		if a.N != b.N || a.NC != b.NC || a.M != b.M || a.Passes != b.Passes {
			t.Errorf("%s p=%d: level-%d stats differ: n=%d/%d nc=%d/%d m=%d/%d passes=%d/%d",
				inst, p, i, b.N, a.N, b.NC, a.NC, b.M, a.M, b.Passes, a.Passes)
			return
		}
		if len(a.PassMapped) != len(b.PassMapped) {
			t.Errorf("%s p=%d: level-%d pass counts differ in length", inst, p, i)
			return
		}
		for j := range a.PassMapped {
			if a.PassMapped[j] != b.PassMapped[j] {
				t.Errorf("%s p=%d: level-%d pass %d mapped %d, want %d",
					inst, p, i, j, b.PassMapped[j], a.PassMapped[j])
				return
			}
		}
	}
	if ref.Stalled != h.Stalled {
		t.Errorf("%s p=%d: stalled %v, want %v", inst, p, h.Stalled, ref.Stalled)
	}
}
