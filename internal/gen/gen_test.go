package gen

import (
	"testing"

	"mlcg/internal/graph"
)

func mustValid(t *testing.T, g *graph.Graph, name string) {
	t.Helper()
	if err := g.Validate(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
}

func TestGrid2D(t *testing.T) {
	g := Grid2D(4, 5)
	mustValid(t, g, "grid2d")
	if g.N() != 20 {
		t.Errorf("n = %d, want 20", g.N())
	}
	// 4 rows x 5 cols: horizontal 4*4=16, vertical 3*5=15.
	if g.M() != 31 {
		t.Errorf("m = %d, want 31", g.M())
	}
	if !g.IsConnected() {
		t.Error("grid disconnected")
	}
	if g.MaxDegree() != 4 {
		t.Errorf("max degree = %d, want 4", g.MaxDegree())
	}
}

func TestGrid3D(t *testing.T) {
	g := Grid3D(3, 4, 5)
	mustValid(t, g, "grid3d")
	if g.N() != 60 {
		t.Errorf("n = %d, want 60", g.N())
	}
	// Edges: (x-1)yz + x(y-1)z + xy(z-1) = 2*4*5 + 3*3*5 + 3*4*4 = 40+45+48.
	if g.M() != 133 {
		t.Errorf("m = %d, want 133", g.M())
	}
	if !g.IsConnected() {
		t.Error("grid3d disconnected")
	}
	if g.MaxDegree() != 6 {
		t.Errorf("max degree = %d, want 6", g.MaxDegree())
	}
}

func TestTriMesh(t *testing.T) {
	g := TriMesh(10, 12, 1)
	mustValid(t, g, "trimesh")
	if g.N() != 120 {
		t.Errorf("n = %d", g.N())
	}
	// lattice edges + one diagonal per cell: 10*11 + 9*12 + 9*11.
	if want := int64(10*11 + 9*12 + 9*11); g.M() != want {
		t.Errorf("m = %d, want %d", g.M(), want)
	}
	if !g.IsConnected() {
		t.Error("trimesh disconnected")
	}
	if g.DegreeSkew() > 3 {
		t.Errorf("trimesh should be regular, skew %v", g.DegreeSkew())
	}
}

func TestTriMeshSeedDeterminism(t *testing.T) {
	a, b := TriMesh(8, 8, 5), TriMesh(8, 8, 5)
	if !graph.Equal(a, b) {
		t.Error("same seed produced different meshes")
	}
	c := TriMesh(8, 8, 6)
	if graph.Equal(a, c) {
		t.Error("different seeds produced identical meshes (unlikely)")
	}
}

func TestRGG(t *testing.T) {
	g := RGG(3000, 0, 7)
	mustValid(t, g, "rgg")
	if !g.IsConnected() {
		t.Error("rgg disconnected after LCC extraction")
	}
	if g.N() < 2500 {
		t.Errorf("rgg LCC too small: %d of 3000", g.N())
	}
	if g.DegreeSkew() > 6 {
		t.Errorf("rgg should be regular-ish, skew %v", g.DegreeSkew())
	}
	// Explicit radius path.
	h := RGG(500, 0.08, 8)
	mustValid(t, h, "rgg-explicit")
}

func TestRoadLike(t *testing.T) {
	g := RoadLike(40, 40, 3)
	mustValid(t, g, "road")
	if !g.IsConnected() {
		t.Error("road disconnected")
	}
	if ad := g.AvgDegree(); ad > 3.5 {
		t.Errorf("road avg degree %v, want sparse (<3.5)", ad)
	}
}

func TestBanded(t *testing.T) {
	g := Banded(500, 6, 0.8, 9)
	mustValid(t, g, "banded")
	if !g.IsConnected() {
		t.Error("banded disconnected")
	}
	if g.DegreeSkew() > 3 {
		t.Errorf("banded should be regular, skew %v", g.DegreeSkew())
	}
}

func TestChainLike(t *testing.T) {
	g := ChainLike(4000, 11)
	mustValid(t, g, "chain")
	if !g.IsConnected() {
		t.Error("chain disconnected")
	}
	if ad := g.AvgDegree(); ad > 3 {
		t.Errorf("chain avg degree %v, want ~2", ad)
	}
	if g.DegreeSkew() < 3 {
		t.Errorf("chain should have junction hubs, skew %v", g.DegreeSkew())
	}
}

func TestRMAT(t *testing.T) {
	g := RMAT(10, 8, 17)
	mustValid(t, g, "rmat")
	if !g.IsConnected() {
		t.Error("rmat disconnected after LCC")
	}
	if g.DegreeSkew() < 10 {
		t.Errorf("rmat should be skewed, got %v", g.DegreeSkew())
	}
}

func TestBA(t *testing.T) {
	g := BA(2000, 4, 19)
	mustValid(t, g, "ba")
	if !g.IsConnected() {
		t.Error("ba disconnected")
	}
	if g.DegreeSkew() < 5 {
		t.Errorf("ba should be skewed, got %v", g.DegreeSkew())
	}
	// Average degree approaches 2k.
	if ad := g.AvgDegree(); ad < 6 || ad > 9 {
		t.Errorf("ba avg degree %v, want ~8", ad)
	}
}

func TestMycielskian(t *testing.T) {
	g := Mycielskian(0) // the triangle itself
	if g.N() != 3 || g.M() != 3 {
		t.Fatalf("base case wrong: n=%d m=%d", g.N(), g.M())
	}
	g = Mycielskian(1)
	mustValid(t, g, "mycielskian1")
	// Mycielskian of triangle: n = 7, m = 3*3 + 3 = 12.
	if g.N() != 7 || g.M() != 12 {
		t.Errorf("M(triangle): n=%d m=%d, want 7, 12", g.N(), g.M())
	}
	g3 := Mycielskian(3)
	mustValid(t, g3, "mycielskian3")
	if !g3.IsConnected() {
		t.Error("mycielskian disconnected")
	}
	// n_k = 4*2^k - 1
	if g3.N() != 31 {
		t.Errorf("n = %d, want 31", g3.N())
	}
	// Skew grows with k: the apex touches every base vertex. At k=3 it is
	// still mild; the suite uses k=9 where it is pronounced.
	if g3.DegreeSkew() < 1.5 {
		t.Errorf("mycielskian skew = %v, want > 1.5", g3.DegreeSkew())
	}
	g6 := Mycielskian(6)
	if g6.DegreeSkew() < 3 {
		t.Errorf("mycielskian(6) skew = %v, want > 3", g6.DegreeSkew())
	}
}

func TestWebLike(t *testing.T) {
	g := WebLike(3000, 23)
	mustValid(t, g, "weblike")
	if !g.IsConnected() {
		t.Error("weblike disconnected")
	}
	if g.DegreeSkew() < 20 {
		t.Errorf("weblike should be extremely skewed, got %v", g.DegreeSkew())
	}
}

func TestCaveman(t *testing.T) {
	g := Caveman(50, 8, 0.3, 29)
	mustValid(t, g, "caveman")
	if !g.IsConnected() {
		t.Error("caveman disconnected")
	}
	if g.AvgDegree() < 5 {
		t.Errorf("caveman avg degree %v, want dense cliques", g.AvgDegree())
	}
}

func TestCitationLike(t *testing.T) {
	g := CitationLike(3000, 31)
	mustValid(t, g, "citation")
	if !g.IsConnected() {
		t.Error("citation disconnected")
	}
	if g.DegreeSkew() < 8 {
		t.Errorf("citation should be skewed, got %v", g.DegreeSkew())
	}
}

func TestPowerLaw(t *testing.T) {
	g := PowerLaw(4000, 2.3, 2, 200, 7)
	mustValid(t, g, "powerlaw")
	if !g.IsConnected() {
		t.Error("powerlaw disconnected after LCC")
	}
	// A gamma=2.3 tail yields strong skew.
	if g.DegreeSkew() < 8 {
		t.Errorf("skew = %v, want heavy tail", g.DegreeSkew())
	}
	// A steep exponent with a tight degree window is near-regular.
	r := PowerLaw(2000, 6, 4, 8, 9)
	mustValid(t, r, "powerlaw-steep")
	if r.DegreeSkew() > 3 {
		t.Errorf("steep/windowed skew = %v, want near-regular", r.DegreeSkew())
	}
	// Degenerate parameters clamp instead of crashing.
	d := PowerLaw(100, 3, 0, -1, 3)
	mustValid(t, d, "powerlaw-degenerate")
}

func TestPowerLawDeterministic(t *testing.T) {
	a := PowerLaw(800, 2.5, 2, 60, 5)
	b := PowerLaw(800, 2.5, 2, 60, 5)
	if !graph.Equal(a, b) {
		t.Error("same seed differs")
	}
}

func TestFamilyGraph(t *testing.T) {
	for _, fam := range []string{"rgg", "delaunay", "kron"} {
		small, err := FamilyGraph(fam, 1, 5)
		if err != nil {
			t.Fatal(err)
		}
		mustValid(t, small, fam)
		big, err := FamilyGraph(fam, 4, 5)
		if err != nil {
			t.Fatal(err)
		}
		if big.Size() < small.Size()*2 {
			t.Errorf("%s: scale 4 not larger than scale 1 (%d vs %d)", fam, big.Size(), small.Size())
		}
	}
	if _, err := FamilyGraph("nope", 1, 1); err == nil {
		t.Error("unknown family accepted")
	}
}

func TestSuiteShape(t *testing.T) {
	if testing.Short() {
		t.Skip("suite generation is slow for -short")
	}
	suite := DefaultSuite()
	if len(suite) != 20 {
		t.Fatalf("suite has %d instances, want 20", len(suite))
	}
	var regular, skewed int
	for _, inst := range suite {
		if inst.Graph.N() < 1000 {
			t.Errorf("%s: too small (n=%d)", inst.Name, inst.Graph.N())
		}
		if err := inst.Graph.Validate(); err != nil {
			t.Errorf("%s: %v", inst.Name, err)
		}
		if !inst.Graph.IsConnected() {
			t.Errorf("%s: disconnected", inst.Name)
		}
		skew := inst.Graph.DegreeSkew()
		if inst.Skewed {
			skewed++
			if skew < 4 {
				t.Errorf("%s: labeled skewed but skew=%.1f", inst.Name, skew)
			}
		} else {
			regular++
			if skew > 8 {
				t.Errorf("%s: labeled regular but skew=%.1f", inst.Name, skew)
			}
		}
	}
	if regular != 10 || skewed != 10 {
		t.Errorf("regular=%d skewed=%d, want 10/10", regular, skewed)
	}
}

func TestSuiteScale2Grows(t *testing.T) {
	if testing.Short() {
		t.Skip("scale-2 generation is slow for -short")
	}
	s1 := Suite(SuiteOptions{Scale: 1, Seed: 9})
	s2 := Suite(SuiteOptions{Scale: 2, Seed: 9})
	grew := 0
	for i := range s1 {
		if s2[i].Name != s1[i].Name {
			t.Fatalf("order changed at %d: %s vs %s", i, s2[i].Name, s1[i].Name)
		}
		if s2[i].Graph.Size() > s1[i].Graph.Size() {
			grew++
		}
		if err := s2[i].Graph.Validate(); err != nil {
			t.Errorf("%s: %v", s2[i].Name, err)
		}
	}
	// All instances scale except mycielskian (exponential construction is
	// bumped by log2(scale), so ×2 bumps it one step) — require near-all.
	if grew < 18 {
		t.Errorf("only %d/20 instances grew at scale 2", grew)
	}
}

func TestSuiteDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("suite generation is slow for -short")
	}
	a := Suite(SuiteOptions{Scale: 1, Seed: 5})
	b := Suite(SuiteOptions{Scale: 1, Seed: 5})
	for i := range a {
		if !graph.Equal(a[i].Graph, b[i].Graph) {
			t.Errorf("instance %s not deterministic", a[i].Name)
		}
	}
}
