package coarsen

import (
	"math"
	"testing"

	"mlcg/internal/gen"
	"mlcg/internal/graph"
	"mlcg/internal/par"
)

// TestMIS2FastMatchesMIS2 pins the strongest possible quality statement:
// the worklist kernel reaches the exact fixpoint of the full-resweep MIS2
// (same tie-breaking hashes, same elimination rule), so the two mappers
// produce byte-identical mappings on every graph, seed, and worker count.
func TestMIS2FastMatchesMIS2(t *testing.T) {
	for name, g := range testGraphs() {
		for _, seed := range []uint64{1, 42, 20210517} {
			ref, err := MIS2{}.Map(g, seed, par.Exec{P: 1})
			if err != nil {
				t.Fatalf("%s: mis2: %v", name, err)
			}
			for _, p := range determinismWorkers {
				m, err := MIS2Fast{}.Map(g, seed, par.Exec{P: p})
				if err != nil {
					t.Fatalf("%s: mis2fast p=%d: %v", name, p, err)
				}
				if err := m.Validate(g.N()); err != nil {
					t.Fatalf("%s: mis2fast p=%d: %v", name, p, err)
				}
				if err := sameMapping(ref, m); err != nil {
					t.Errorf("%s seed=%d p=%d: mis2fast differs from mis2: %v", name, seed, p, err)
				}
			}
		}
	}
}

// TestMIS2FastMatchesMIS2Quality runs both D2-MIS mappers over the
// generator suite and asserts comparable coarsening ratios — the issue's
// acceptance bar. The kernels are exact-equivalent (pinned above on the
// small zoo), so the tolerance is belt-and-braces: any future divergence
// of the worklist variant must stay within 1% coarsening ratio before the
// exact-match test is deliberately relaxed.
func TestMIS2FastMatchesMIS2Quality(t *testing.T) {
	suite := gen.DefaultSuite()
	if testing.Short() {
		var small []gen.Instance
		for _, inst := range suite {
			if inst.Graph.N() <= shortSlowMaxN {
				small = append(small, inst)
			}
		}
		suite = small
	}
	for _, inst := range suite {
		ref, err := MIS2{}.Map(inst.Graph, 20210517, par.Exec{P: 0})
		if err != nil {
			t.Fatalf("%s: mis2: %v", inst.Name, err)
		}
		m, err := MIS2Fast{}.Map(inst.Graph, 20210517, par.Exec{P: 0})
		if err != nil {
			t.Fatalf("%s: mis2fast: %v", inst.Name, err)
		}
		if err := m.Validate(inst.Graph.N()); err != nil {
			t.Fatalf("%s: mis2fast: %v", inst.Name, err)
		}
		if rel := math.Abs(m.Ratio()-ref.Ratio()) / ref.Ratio(); rel > 0.01 {
			t.Errorf("%s: coarsening ratio %.3f vs mis2's %.3f (drift %.1f%%)",
				inst.Name, m.Ratio(), ref.Ratio(), rel*100)
		}
		if err := sameMapping(ref, m); err != nil {
			t.Errorf("%s: mis2fast differs from mis2: %v", inst.Name, err)
		}
	}
}

// TestMIS2FastWorkspaceReuse drives the WorkspaceMapper path: one arena
// shared across every level of a hierarchy (and across repeated MapWith
// calls on shrinking graphs) must give the same hierarchy as fresh-scratch
// Map calls.
func TestMIS2FastWorkspaceReuse(t *testing.T) {
	g := bigTestGraph(3000, 9)
	c := &Coarsener{Mapper: MIS2Fast{}, Builder: BuildSort{}, Seed: 7, Workers: 4}
	h, err := c.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := Mapper(MIS2Fast{}).(WorkspaceMapper); !ok {
		t.Fatal("MIS2Fast does not implement WorkspaceMapper")
	}
	// Re-map every level with fresh scratch and compare.
	for i, lg := range h.Graphs[:len(h.Graphs)-1] {
		m, err := MIS2Fast{}.Map(lg, 7+uint64(i), par.Exec{P: 4})
		if err != nil {
			t.Fatal(err)
		}
		lvl := h.Maps[i]
		if len(m.M) != len(lvl) {
			t.Fatalf("level %d: length %d vs %d", i, len(m.M), len(lvl))
		}
		for u := range lvl {
			if m.M[u] != lvl[u] {
				t.Fatalf("level %d: arena-reuse mapping differs at vertex %d", i, u)
			}
		}
	}
}

// TestMIS2FastAutoBuilder shares one arena between the worklist mapper and
// the adaptive construction policy: the mapper's selection scratch and the
// builders' bin/histogram scratch live in disjoint Workspace fields, so an
// auto-built hierarchy must be byte-identical to a sort-built one.
func TestMIS2FastAutoBuilder(t *testing.T) {
	g := bigTestGraph(3000, 9)
	ref, err := (&Coarsener{Mapper: MIS2Fast{}, Builder: BuildSort{}, Seed: 7, Workers: 4}).Run(g)
	if err != nil {
		t.Fatal(err)
	}
	h, err := (&Coarsener{Mapper: MIS2Fast{}, Builder: &AutoConstruct{}, Seed: 7, Workers: 4}).Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if h.Levels() != ref.Levels() {
		t.Fatalf("auto builder: %d levels vs sort's %d", h.Levels(), ref.Levels())
	}
	for i := range ref.Maps {
		if len(h.Maps[i]) != len(ref.Maps[i]) {
			t.Fatalf("level %d: map length %d vs %d", i, len(h.Maps[i]), len(ref.Maps[i]))
		}
		for u := range ref.Maps[i] {
			if h.Maps[i][u] != ref.Maps[i][u] {
				t.Fatalf("level %d: auto-built mapping differs at vertex %d", i, u)
			}
		}
		// Builders may order adjacency differently; the guarantee across
		// builders is the same weighted edge set, not the same byte layout.
		a, b := ref.Graphs[i+1], h.Graphs[i+1]
		if a.N() != b.N() || a.M() != b.M() {
			t.Fatalf("level %d: auto-built graph is %dx%d, sort-built %dx%d",
				i+1, b.N(), b.M(), a.N(), a.M())
		}
		for u := int32(0); u < int32(a.N()); u++ {
			adj, wgt := a.Neighbors(u)
			for k, v := range adj {
				if w, ok := b.EdgeWeight(u, v); !ok || w != wgt[k] {
					t.Fatalf("level %d: edge (%d,%d) weight mismatch between builders", i+1, u, v)
				}
			}
		}
	}
}

// fuzzCSR decodes fuzz bytes into a small valid CSR graph: byte 0 picks
// the vertex count, the rest are (u, v, w) edge triples. Returns nil when
// the bytes do not form a usable graph.
func fuzzCSR(in []byte) *graph.Graph {
	if len(in) < 3 {
		return nil
	}
	n := int(in[0])%48 + 2
	var edges []graph.Edge
	for i := 1; i+2 < len(in) && len(edges) < 512; i += 3 {
		u := int32(int(in[i]) % n)
		v := int32(int(in[i+1]) % n)
		if u == v {
			continue
		}
		edges = append(edges, graph.Edge{U: u, V: v, W: int64(in[i+2]%9) + 1})
	}
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		return nil
	}
	return g
}

// FuzzMIS2Fast checks the worklist kernel's defining invariants on
// arbitrary small CSRs: the selected set is distance-2 independent and
// maximal, every vertex is decided, the emitted mapping is a valid compact
// mapping, and selection and mapping are byte-identical to MIS2 at p=1 and
// a parallel worker count.
func FuzzMIS2Fast(f *testing.F) {
	f.Add([]byte{7, 0, 1, 1, 1, 2, 1, 2, 3, 1, 3, 4, 1})  // path
	f.Add([]byte{16, 0, 1, 3, 0, 2, 5, 0, 3, 1, 0, 4, 2}) // star
	f.Add([]byte{2, 0, 1, 1})                             // single edge
	f.Add([]byte{40, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Fuzz(func(t *testing.T, in []byte) {
		g := fuzzCSR(in)
		if g == nil {
			return
		}
		n := g.N()
		const seed, p = 99, 3

		ws := NewWorkspace()
		s := ws.mis2Scratch(n, par.Workers(p, n), nil)
		key := s.key
		for i := 0; i < n; i++ {
			key[i] = par.Mix64(seed ^ uint64(i)*0x9e3779b97f4a7c15)
		}
		state := mis2FastStates(g, s, par.Exec{P: p})

		// Every vertex decided; the IN set is a distance-2 independent set.
		inD2 := func(v int32) bool { // v within distance 2 of an IN vertex ≠ v
			adj, _ := g.Neighbors(v)
			for _, u := range adj {
				if state[u] == misIn {
					return true
				}
				adj2, _ := g.Neighbors(u)
				for _, w := range adj2 {
					if w != v && state[w] == misIn {
						return true
					}
				}
			}
			return false
		}
		for v := int32(0); v < int32(n); v++ {
			switch state[v] {
			case misIn:
				if inD2(v) {
					t.Fatalf("vertex %d: two MIS members within distance 2", v)
				}
			case misOut:
				if !inD2(v) {
					t.Fatalf("vertex %d: eliminated with no MIS member within distance 2 (not maximal)", v)
				}
			default:
				t.Fatalf("vertex %d: left undecided (state %d)", v, state[v])
			}
		}

		// Kernel equivalence and mapping invariants vs MIS2, sequential and
		// parallel.
		refStates := mis2States(g, seed, par.Exec{P: 1})
		for v := 0; v < n; v++ {
			if refStates[v] != state[v] {
				t.Fatalf("vertex %d: state %d, mis2 has %d", v, state[v], refStates[v])
			}
		}
		ref, err := MIS2{}.Map(g, seed, par.Exec{P: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, p} {
			m, err := MIS2Fast{}.Map(g, seed, par.Exec{P: workers})
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Validate(n); err != nil {
				t.Fatalf("p=%d: %v", workers, err)
			}
			if err := sameMapping(ref, m); err != nil {
				t.Fatalf("p=%d: mis2fast differs from mis2: %v", workers, err)
			}
		}
	})
}
