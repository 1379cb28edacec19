package coarsen

import (
	"testing"
	"testing/quick"

	"mlcg/internal/graph"
	"mlcg/internal/par"
)

// testGraphs returns a small zoo of connected graphs exercising different
// structures.
func testGraphs() map[string]*graph.Graph {
	path := func(n int) *graph.Graph {
		var e []graph.Edge
		for i := 0; i < n-1; i++ {
			e = append(e, graph.Edge{U: int32(i), V: int32(i + 1), W: int64(i%3 + 1)})
		}
		return graph.MustFromEdges(n, e)
	}
	star := func(n int) *graph.Graph {
		var e []graph.Edge
		for i := 1; i < n; i++ {
			e = append(e, graph.Edge{U: 0, V: int32(i), W: int64(i%5 + 1)})
		}
		return graph.MustFromEdges(n, e)
	}
	grid := func(r, c int) *graph.Graph {
		var e []graph.Edge
		id := func(i, j int) int32 { return int32(i*c + j) }
		for i := 0; i < r; i++ {
			for j := 0; j < c; j++ {
				if j+1 < c {
					e = append(e, graph.Edge{U: id(i, j), V: id(i, j+1), W: 1})
				}
				if i+1 < r {
					e = append(e, graph.Edge{U: id(i, j), V: id(i+1, j), W: 2})
				}
			}
		}
		return graph.MustFromEdges(r*c, e)
	}
	clique := func(n int) *graph.Graph {
		var e []graph.Edge
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				e = append(e, graph.Edge{U: int32(i), V: int32(j), W: int64((i+j)%4 + 1)})
			}
		}
		return graph.MustFromEdges(n, e)
	}
	rand := func(n int, seed uint64) *graph.Graph {
		rng := par.NewRNG(seed)
		var e []graph.Edge
		for i := 0; i < n-1; i++ {
			e = append(e, graph.Edge{U: int32(i), V: int32(i + 1), W: int64(rng.Intn(9) + 1)})
		}
		for i := 0; i < 2*n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				e = append(e, graph.Edge{U: int32(u), V: int32(v), W: int64(rng.Intn(9) + 1)})
			}
		}
		return graph.MustFromEdges(n, e)
	}
	return map[string]*graph.Graph{
		"path40":   path(40),
		"star30":   star(30),
		"grid8x9":  grid(8, 9),
		"clique12": clique(12),
		"rand200":  rand(200, 7),
		"rand999":  rand(999, 13),
		"pair":     path(2),
		"triangle": clique(3),
	}
}

func allMappers(t *testing.T) []Mapper {
	t.Helper()
	var out []Mapper
	for _, name := range MapperNames() {
		m, err := MapperByName(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, m)
	}
	return out
}

// aggregatesConnected reports whether every aggregate of m induces a
// connected subgraph of g.
func aggregatesConnected(g *graph.Graph, m *Mapping) bool {
	n := g.N()
	members := make([][]int32, m.NC)
	for u := 0; u < n; u++ {
		members[m.M[u]] = append(members[m.M[u]], int32(u))
	}
	inAgg := make([]int32, n)
	for u := 0; u < n; u++ {
		inAgg[u] = m.M[u]
	}
	visited := make([]bool, n)
	var stack []int32
	for a, mem := range members {
		if len(mem) <= 1 {
			continue
		}
		count := 0
		stack = append(stack[:0], mem[0])
		visited[mem[0]] = true
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			count++
			adj, _ := g.Neighbors(u)
			for _, v := range adj {
				if inAgg[v] == int32(a) && !visited[v] {
					visited[v] = true
					stack = append(stack, v)
				}
			}
		}
		if count != len(mem) {
			return false
		}
	}
	return true
}

func TestMapperRegistry(t *testing.T) {
	for _, name := range MapperNames() {
		m, err := MapperByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if m.Name() != name {
			t.Errorf("mapper %q reports name %q", name, m.Name())
		}
	}
	if _, err := MapperByName("bogus"); err == nil {
		t.Error("bogus mapper name accepted")
	}
	for _, name := range BuilderNames() {
		b, err := BuilderByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if b.Name() != name {
			t.Errorf("builder %q reports name %q", name, b.Name())
		}
	}
	if _, err := BuilderByName("bogus"); err == nil {
		t.Error("bogus builder name accepted")
	}
}

func TestAllMappersProduceValidMappings(t *testing.T) {
	graphs := testGraphs()
	for _, mapper := range allMappers(t) {
		for gname, g := range graphs {
			for _, p := range []int{1, 4} {
				m, err := mapper.Map(g, 42, par.Exec{P: p})
				if err != nil {
					t.Fatalf("%s/%s p=%d: %v", mapper.Name(), gname, p, err)
				}
				if err := m.Validate(g.N()); err != nil {
					t.Errorf("%s/%s p=%d: %v", mapper.Name(), gname, p, err)
				}
			}
		}
	}
}

func TestMappersReduceVertexCount(t *testing.T) {
	// On any graph with >= 8 vertices, every mapper except possibly HEC2
	// (which stalls on mutual-matching structures) must achieve nc < n.
	graphs := testGraphs()
	for _, mapper := range allMappers(t) {
		for gname, g := range graphs {
			if g.N() < 8 {
				continue
			}
			m, err := mapper.Map(g, 3, par.Exec{P: 2})
			if err != nil {
				t.Fatal(err)
			}
			if mapper.Name() == "hec2" {
				continue // may legitimately stall; driver handles it
			}
			if m.NC >= g.NumV {
				t.Errorf("%s/%s: no reduction (nc=%d n=%d)", mapper.Name(), gname, m.NC, g.NumV)
			}
		}
	}
}

func TestHECFamilyAggregatesConnected(t *testing.T) {
	// Strict aggregation schemes produce connected aggregates (vertices
	// only ever join a neighbor's aggregate). Two-hop matching is the
	// designed exception.
	graphs := testGraphs()
	for _, name := range []string{"hec", "hecseq", "hec2", "hec3", "hem", "hemseq", "gosh", "goshhec", "mis2"} {
		mapper, _ := MapperByName(name)
		for gname, g := range graphs {
			m, err := mapper.Map(g, 99, par.Exec{P: 4})
			if err != nil {
				t.Fatal(err)
			}
			if !aggregatesConnected(g, m) {
				t.Errorf("%s/%s: disconnected aggregate", name, gname)
			}
		}
	}
}

func TestMatchingAggregatesAreSmall(t *testing.T) {
	// HEM is a matching: aggregates have at most two vertices.
	graphs := testGraphs()
	for _, name := range []string{"hem", "hemseq", "twohop"} {
		mapper, _ := MapperByName(name)
		for gname, g := range graphs {
			m, err := mapper.Map(g, 5, par.Exec{P: 4})
			if err != nil {
				t.Fatal(err)
			}
			sizes := make([]int, m.NC)
			for _, a := range m.M {
				sizes[a]++
			}
			for a, s := range sizes {
				if s > 2 {
					t.Errorf("%s/%s: aggregate %d has %d vertices (matching allows 2)",
						name, gname, a, s)
				}
			}
			if float64(m.NC) < float64(g.N())/2 {
				t.Errorf("%s/%s: nc=%d below n/2=%d — impossible for a matching",
					name, gname, m.NC, g.N()/2)
			}
		}
	}
}

func TestHECRatioCanExceedTwo(t *testing.T) {
	// On a star, HEC maps every leaf into the hub's aggregate: ratio ~n.
	g := testGraphs()["star30"]
	for _, name := range []string{"hec", "hecseq"} {
		mapper, _ := MapperByName(name)
		m, err := mapper.Map(g, 1, par.Exec{P: 2})
		if err != nil {
			t.Fatal(err)
		}
		if m.Ratio() < 5 {
			t.Errorf("%s: star ratio = %v, want aggressive coarsening", name, m.Ratio())
		}
	}
}

func TestHECSeqDeterministic(t *testing.T) {
	g := testGraphs()["rand200"]
	a, _ := HECSeq{}.Map(g, 7, par.Exec{P: 1})
	b, _ := HECSeq{}.Map(g, 7, par.Exec{P: 4}) // parallelism must not change p=seq algorithm output
	for i := range a.M {
		if a.M[i] != b.M[i] {
			t.Fatalf("HECSeq output differs at %d", i)
		}
	}
	c, _ := HECSeq{}.Map(g, 8, par.Exec{P: 1})
	same := 0
	for i := range a.M {
		if a.M[i] == c.M[i] {
			same++
		}
	}
	if same == len(a.M) {
		t.Error("different seeds produced identical HECSeq mapping (suspicious)")
	}
}

func TestHECPassStatistics(t *testing.T) {
	g := testGraphs()["rand999"]
	m, err := HEC{}.Map(g, 11, par.Exec{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, c := range m.PassMapped {
		total += c
	}
	if total != int64(g.N()) {
		t.Errorf("pass counts sum to %d, want n=%d", total, g.N())
	}
	if m.Passes < 1 {
		t.Errorf("passes = %d", m.Passes)
	}
	// The paper's observation: the vast majority maps in the first two
	// passes. Assert a loose version.
	var firstTwo int64
	for i := 0; i < len(m.PassMapped) && i < 2; i++ {
		firstTwo += m.PassMapped[i]
	}
	if float64(firstTwo) < 0.8*float64(g.N()) {
		t.Errorf("only %d/%d vertices mapped in two passes", firstTwo, g.N())
	}
}

func TestHEMSeqMatchesAreHeavy(t *testing.T) {
	// For the sequential algorithm with a known seed, each matched pair
	// must be joined by an edge (sanity of the matching).
	g := testGraphs()["grid8x9"]
	m, err := HEMSeq{}.Map(g, 3, par.Exec{P: 1})
	if err != nil {
		t.Fatal(err)
	}
	members := make(map[int32][]int32)
	for u, a := range m.M {
		members[a] = append(members[a], int32(u))
	}
	for a, mem := range members {
		if len(mem) == 2 && !g.HasEdge(mem[0], mem[1]) {
			t.Errorf("aggregate %d pairs non-adjacent vertices %v", a, mem)
		}
	}
}

func TestMIS2Invariants(t *testing.T) {
	for gname, g := range testGraphs() {
		state := mis2States(g, 17, par.Exec{P: 4})
		n := g.N()
		// (1) No two MIS vertices within distance two.
		for u := int32(0); int(u) < n; u++ {
			if state[u] != misIn {
				continue
			}
			adj, _ := g.Neighbors(u)
			for _, v := range adj {
				if state[v] == misIn {
					t.Fatalf("%s: adjacent MIS vertices %d,%d", gname, u, v)
				}
				adj2, _ := g.Neighbors(v)
				for _, w := range adj2 {
					if w != u && state[w] == misIn {
						t.Fatalf("%s: MIS vertices %d,%d at distance 2", gname, u, w)
					}
				}
			}
		}
		// (2) Maximality: every vertex is within distance 2 of the MIS.
		for u := int32(0); int(u) < n; u++ {
			if state[u] == misIn {
				continue
			}
			found := false
			adj, _ := g.Neighbors(u)
			for _, v := range adj {
				if state[v] == misIn {
					found = true
					break
				}
				adj2, _ := g.Neighbors(v)
				for _, w := range adj2 {
					if state[w] == misIn {
						found = true
						break
					}
				}
				if found {
					break
				}
			}
			if !found {
				t.Fatalf("%s: vertex %d not within distance 2 of the MIS", gname, u)
			}
		}
	}
}

func TestMIS2CoarsensAggressively(t *testing.T) {
	g := testGraphs()["grid8x9"]
	m, err := MIS2{}.Map(g, 23, par.Exec{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Distance-2 aggregation on a grid shrinks by much more than 2x.
	if m.Ratio() < 3 {
		t.Errorf("MIS2 ratio = %v on grid, want aggressive (>3)", m.Ratio())
	}
}

func TestGOSHAvoidsHubHubMerge(t *testing.T) {
	// Two hubs joined by a heavy edge, each with leaves: GOSH must not put
	// both hubs into one aggregate.
	var e []graph.Edge
	e = append(e, graph.Edge{U: 0, V: 1, W: 100})
	for i := int32(2); i < 22; i++ {
		hub := int32(0)
		if i >= 12 {
			hub = 1
		}
		e = append(e, graph.Edge{U: hub, V: i, W: 1})
	}
	g := graph.MustFromEdges(22, e)
	for seed := uint64(0); seed < 10; seed++ {
		m, err := GOSH{}.Map(g, seed, par.Exec{P: 4})
		if err != nil {
			t.Fatal(err)
		}
		if m.M[0] == m.M[1] {
			t.Fatalf("seed %d: hubs 0 and 1 merged", seed)
		}
	}
}

func TestGOSHHECPrefersHeavyEdges(t *testing.T) {
	// A square with one heavy edge: GOSHHEC (weight-aware) must contract
	// the heavy pair together.
	g := graph.MustFromEdges(4, []graph.Edge{
		{U: 0, V: 1, W: 100}, {U: 1, V: 2, W: 1}, {U: 2, V: 3, W: 1}, {U: 3, V: 0, W: 1},
	})
	m, err := GOSHHEC{}.Map(g, 5, par.Exec{P: 2})
	if err != nil {
		t.Fatal(err)
	}
	if m.M[0] != m.M[1] {
		t.Errorf("heavy pair not contracted: %v", m.M)
	}
}

func TestTwoHopMatchesLeaves(t *testing.T) {
	// A star of leaves: HEM matches the hub with one leaf and strands the
	// rest; leaf matching should pair the stranded leaves.
	var e []graph.Edge
	for i := int32(1); i <= 20; i++ {
		e = append(e, graph.Edge{U: 0, V: i, W: 1})
	}
	g := graph.MustFromEdges(21, e)
	m, err := TwoHop{}.Map(g, 9, par.Exec{P: 2})
	if err != nil {
		t.Fatal(err)
	}
	// With leaf matching: hub+1 leaf, and 19 leaves pair into 9 pairs + 1
	// singleton => nc = 11. Plain HEM would give nc = 20.
	if m.NC > 12 {
		t.Errorf("two-hop left nc=%d, leaf matching ineffective (plain HEM gives 20)", m.NC)
	}
}

func TestTwoHopMatchesTwins(t *testing.T) {
	// Bipartite-ish: many degree-2 vertices with identical neighborhoods.
	var e []graph.Edge
	for i := int32(2); i < 20; i++ {
		e = append(e, graph.Edge{U: 0, V: i, W: 1})
		e = append(e, graph.Edge{U: 1, V: i, W: 1})
	}
	g := graph.MustFromEdges(20, e)
	m, err := TwoHop{}.Map(g, 31, par.Exec{P: 2})
	if err != nil {
		t.Fatal(err)
	}
	// 18 twins (all adjacent to exactly {0,1}) plus vertices 0,1. HEM
	// matches 0 and 1 with one twin each; remaining 16 twins pair up.
	if m.NC > 12 {
		t.Errorf("twin matching left nc=%d", m.NC)
	}
}

func TestHeavyNeighborsTieBreak(t *testing.T) {
	// Triangle with equal weights: H must contain no cycle longer than 2
	// under the positional tie-break.
	g := graph.MustFromEdges(3, []graph.Edge{
		{U: 0, V: 1, W: 5}, {U: 1, V: 2, W: 5}, {U: 2, V: 0, W: 5},
	})
	for seed := uint64(0); seed < 20; seed++ {
		perm := par.RandPerm(3, seed, par.Exec{P: 1})
		pos := par.InversePerm(perm, par.Exec{P: 1})
		hv := heavyNeighbors(g, pos, par.Exec{P: 1})
		// Follow pointers from each vertex; must reach a 2-cycle within n
		// steps.
		for s := int32(0); s < 3; s++ {
			a, b := s, hv[s]
			for i := 0; i < 6; i++ {
				if hv[b] == a {
					break
				}
				a, b = b, hv[b]
				if i == 5 {
					t.Fatalf("seed %d: no 2-cycle reached from %d (H=%v)", seed, s, hv)
				}
			}
		}
	}
}

func TestHeavyNeighborsPicksHeaviest(t *testing.T) {
	g := graph.MustFromEdges(4, []graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 0, V: 2, W: 9}, {U: 0, V: 3, W: 3},
	})
	pos := []int32{0, 1, 2, 3}
	hv := heavyNeighbors(g, pos, par.Exec{P: 1})
	if hv[0] != 2 {
		t.Errorf("H[0] = %d, want 2 (heaviest)", hv[0])
	}
	if hv[1] != 0 || hv[2] != 0 || hv[3] != 0 {
		t.Errorf("leaves should point at hub: %v", hv)
	}
}

func TestQuickAllMappersOnRandomGraphs(t *testing.T) {
	mappers := allMappers(t)
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%120) + 4
		rng := par.NewRNG(seed)
		var e []graph.Edge
		for i := 0; i < n-1; i++ {
			e = append(e, graph.Edge{U: int32(i), V: int32(i + 1), W: int64(rng.Intn(7) + 1)})
		}
		for i := 0; i < n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				e = append(e, graph.Edge{U: int32(u), V: int32(v), W: int64(rng.Intn(7) + 1)})
			}
		}
		g := graph.MustFromEdges(n, e)
		for _, mp := range mappers {
			m, err := mp.Map(g, seed^0xabc, par.Exec{P: 3})
			if err != nil {
				return false
			}
			if m.Validate(g.N()) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestMappingValidateRejectsBadMappings(t *testing.T) {
	m := &Mapping{M: []int32{0, 1, 1}, NC: 2}
	if err := m.Validate(3); err != nil {
		t.Errorf("good mapping rejected: %v", err)
	}
	if (&Mapping{M: []int32{0, 2}, NC: 2}).Validate(2) == nil {
		t.Error("out-of-range id accepted")
	}
	if (&Mapping{M: []int32{0, 0}, NC: 2}).Validate(2) == nil {
		t.Error("non-compact mapping accepted")
	}
	if (&Mapping{M: []int32{0}, NC: 1}).Validate(2) == nil {
		t.Error("short mapping accepted")
	}
	if (&Mapping{M: []int32{-1, 0}, NC: 1}).Validate(2) == nil {
		t.Error("unset entry accepted")
	}
}

func TestEmptyAndTinyGraphs(t *testing.T) {
	empty := graph.MustFromEdges(0, nil)
	single := graph.MustFromEdges(1, nil)
	for _, mapper := range allMappers(t) {
		m, err := mapper.Map(empty, 1, par.Exec{P: 2})
		if err != nil {
			t.Fatalf("%s on empty: %v", mapper.Name(), err)
		}
		if len(m.M) != 0 {
			t.Errorf("%s on empty: M=%v", mapper.Name(), m.M)
		}
		m, err = mapper.Map(single, 1, par.Exec{P: 2})
		if err != nil {
			t.Fatalf("%s on single: %v", mapper.Name(), err)
		}
		if m.NC != 1 || m.M[0] != 0 {
			t.Errorf("%s on single vertex: NC=%d M=%v", mapper.Name(), m.NC, m.M)
		}
	}
}
