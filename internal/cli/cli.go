package cli

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"mlcg/internal/coarsen"
	"mlcg/internal/gen"
	"mlcg/internal/graph"
	"mlcg/internal/hierfmt"
)

// Formats lists the supported -format values. "mlcg" is the hierfmt
// checksummed container (docs/FORMAT.md) restricted to a single level.
func Formats() string { return "edgelist, metis, binary, mlcg" }

// ConstructPolicies documents the -construct flag values shared by the
// coarsening commands: every registered builder name, resolved by
// coarsen.BuilderByName ("auto" is the adaptive per-level policy).
func ConstructPolicies() string { return strings.Join(coarsen.BuilderNames(), ", ") }

// Mappers documents the -mapper flag values shared by the coarsening
// commands. Derived from the coarsen.AllMappers registry so a newly
// registered mapper appears in every command's help text automatically.
func Mappers() string {
	all := coarsen.AllMappers()
	names := make([]string, len(all))
	for i, m := range all {
		names[i] = m.Name()
	}
	return strings.Join(names, ", ")
}

// Generators lists the supported -gen values.
func Generators() string { return "grid2d, grid3d, trimesh, rgg, rmat, ba, road, chain, web" }

// LoadOrGenerate reads a graph from path in the given format, or generates
// one with the named generator when path is empty.
func LoadOrGenerate(path, format, genName string, seed uint64) (*graph.Graph, error) {
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		switch strings.ToLower(format) {
		case "", "edgelist":
			// Shard-parallel text parse; identical results to the
			// sequential reader, just faster on multi-MB lists.
			return graph.StreamEdges(f, runtime.GOMAXPROCS(0))
		case "metis":
			return graph.ReadMetis(f)
		case "binary":
			return graph.ReadBinary(f)
		case "mlcg":
			data, err := os.ReadFile(path)
			if err != nil {
				return nil, err
			}
			// A graph from outside gets the symmetry and duplicate
			// check that ReadBinary runs on every body.
			g, _, err := hierfmt.LoadGraph(data, hierfmt.LoadOptions{FullValidate: true})
			return g, err
		}
		return nil, fmt.Errorf("unknown format %q (want %s)", format, Formats())
	}
	switch genName {
	case "grid2d":
		return gen.Grid2D(300, 300), nil
	case "grid3d":
		return gen.Grid3D(40, 40, 40), nil
	case "trimesh":
		return gen.TriMesh(250, 250, seed), nil
	case "rgg":
		return gen.RGG(60000, 0, seed), nil
	case "rmat":
		return gen.RMAT(15, 10, seed), nil
	case "ba":
		return gen.BA(30000, 8, seed), nil
	case "road":
		return gen.RoadLike(250, 250, seed), nil
	case "chain":
		return gen.ChainLike(80000, seed), nil
	case "web":
		return gen.WebLike(40000, seed), nil
	case "":
		return nil, fmt.Errorf("need -in FILE or -gen NAME (one of %s)", Generators())
	}
	return nil, fmt.Errorf("unknown generator %q (want %s)", genName, Generators())
}

// StartProfiles starts pprof collection for the -cpuprofile/-memprofile
// flags shared by the commands. Either path may be empty to skip that
// profile. The returned stop function must be called exactly once, after
// the work being measured: it finishes the CPU profile and snapshots the
// heap profile.
func StartProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return err
			}
			defer f.Close()
			runtime.GC() // materialize the steady-state heap before snapshotting
			if err := pprof.WriteHeapProfile(f); err != nil {
				return err
			}
		}
		return nil
	}, nil
}

// WriteGraph writes g to path in the given format.
func WriteGraph(g *graph.Graph, path, format string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	switch strings.ToLower(format) {
	case "", "edgelist":
		return g.WriteEdgeList(f)
	case "metis":
		return g.WriteMetis(f)
	case "binary":
		return g.WriteBinary(f)
	case "mlcg":
		return hierfmt.SaveGraph(f, g, hierfmt.SaveOptions{})
	}
	return fmt.Errorf("unknown format %q (want %s)", format, Formats())
}
