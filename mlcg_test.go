package mlcg

import (
	"bytes"
	"strings"
	"testing"
)

func TestFacadeEndToEnd(t *testing.T) {
	g := Grid3D(12, 12, 12)
	if g.N() != 12*12*12 {
		t.Fatalf("n = %d", g.N())
	}
	h, err := Coarsen(g, "hec", "sort", CoarsenOptions{Seed: 1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if h.Levels() < 2 || h.Coarsest().N() >= g.N() {
		t.Errorf("levels=%d coarsest=%d", h.Levels(), h.Coarsest().N())
	}
	res, err := FMBisect(g, BisectOptions{Seed: 2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cut <= 0 || res.Cut != EdgeCut(g, res.Part) {
		t.Errorf("cut %d inconsistent", res.Cut)
	}
	spr, err := SpectralBisect(g, BisectOptions{Seed: 2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if spr.Cut <= 0 {
		t.Errorf("spectral cut %d", spr.Cut)
	}
}

func TestFacadeGraphConstruction(t *testing.T) {
	g, err := NewGraph(3, []Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 2}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	h, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.M() != 2 {
		t.Errorf("m = %d", h.M())
	}
	buf.Reset()
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBinary(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeRegistries(t *testing.T) {
	if len(MapperNames()) != 11 {
		t.Errorf("%d mappers, want 11", len(MapperNames()))
	}
	if got, want := strings.Join(BuilderNames(), " "), "sort hash spgemm globalsort segsort auto"; got != want {
		t.Errorf("BuilderNames() = %s, want %s", got, want)
	}
	for _, n := range MapperNames() {
		if _, err := MapperByName(n); err != nil {
			t.Error(err)
		}
	}
	if _, err := Coarsen(Grid2D(4, 4), "nope", "sort", CoarsenOptions{}); err == nil {
		t.Error("unknown mapper accepted")
	}
	if _, err := Coarsen(Grid2D(4, 4), "hec", "nope", CoarsenOptions{}); err == nil {
		t.Error("unknown builder accepted")
	}
	if _, err := FMBisect(Grid2D(4, 4), BisectOptions{Mapper: "nope"}); err == nil {
		t.Error("unknown mapper accepted by FMBisect")
	}
	if _, err := SpectralBisect(Grid2D(4, 4), BisectOptions{Builder: "nope"}); err == nil {
		t.Error("unknown builder accepted by SpectralBisect")
	}
}

func TestFacadeBaselines(t *testing.T) {
	g := TriMesh(20, 20, 3)
	for name, b := range map[string]*FMBisector{
		"metis":   MetisLike(1),
		"mtmetis": MtMetisLike(1, 2),
	} {
		r, err := b.Bisect(g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.Cut <= 0 {
			t.Errorf("%s: cut %d", name, r.Cut)
		}
	}
}

func TestFacadeKWayAndCluster(t *testing.T) {
	g := Grid2D(16, 16)
	kr, err := KWayPartition(g, 4, BisectOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if kr.Cut <= 0 || kr.Cut != KWayEdgeCut(g, kr.Part) {
		t.Errorf("kway cut %d inconsistent", kr.Cut)
	}
	if len(kr.Weights) != 4 {
		t.Errorf("weights %v", kr.Weights)
	}
	cr, err := Cluster(g, 8, BisectOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if cr.K <= 1 {
		t.Errorf("K = %d", cr.K)
	}
	if got := Modularity(g, cr.Labels); got != cr.Modularity {
		t.Errorf("modularity mismatch %v vs %v", got, cr.Modularity)
	}
	coords, err := SpectralCoordinates(g, BisectOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(coords) != g.N() {
		t.Errorf("coords %d", len(coords))
	}
	if _, err := KWayPartition(g, 2, BisectOptions{Mapper: "nope"}); err == nil {
		t.Error("bad mapper accepted")
	}
	if _, err := Cluster(g, 2, BisectOptions{Builder: "nope"}); err == nil {
		t.Error("bad builder accepted")
	}
	if _, err := SpectralCoordinates(g, BisectOptions{Mapper: "nope"}); err == nil {
		t.Error("bad mapper accepted by coordinates")
	}
}

func TestFacadeGenerators(t *testing.T) {
	for name, g := range map[string]*Graph{
		"rgg":    RGG(400, 0, 1),
		"rmat":   RMAT(8, 6, 2),
		"ba":     BA(300, 3, 3),
		"tri":    TriMesh(10, 10, 4),
		"myciel": Mycielskian(3),
		"grid2d": Grid2D(5, 5),
	} {
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
