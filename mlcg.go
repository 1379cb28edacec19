// Package mlcg (MultiLevel Coarsening of Graphs) is the public API of a
// from-scratch Go reproduction of "Performance-Portable Graph Coarsening
// for Efficient Multilevel Graph Analysis" (Gilbert, Acer, Boman, Madduri,
// Rajamanickam; IPDPS 2021).
//
// The package exposes the building blocks of a multilevel graph-analysis
// pipeline:
//
//   - CSR graphs (NewGraph, ReadEdgeList, ReadBinary) and synthetic
//     generators (Grid2D, Grid3D, TriMesh, RGG, RMAT, BA, Mycielskian);
//   - eleven coarse-mapping algorithms (Mapper / MapperByName) including
//     the paper's lock-free parallel HEC, and five coarse-graph
//     construction strategies (Builder / BuilderByName);
//   - the multilevel driver (Coarsen / Coarsener);
//   - multilevel spectral and Fiduccia–Mattheyses bisection
//     (SpectralBisect, FMBisect) plus the Metis-style baselines
//     (MetisLike, MtMetisLike);
//   - recursive k-way FM partitioning (KWayPartition), multilevel
//     modularity clustering (Cluster) and spectral drawing
//     (SpectralCoordinates).
//
// A minimal end-to-end use:
//
//	g := mlcg.Grid3D(32, 32, 32)
//	h, err := mlcg.Coarsen(g, "hec", "sort", mlcg.CoarsenOptions{})
//	res, err := mlcg.FMBisect(g, mlcg.BisectOptions{})
//
// See examples/ for runnable programs and DESIGN.md for the mapping from
// the paper's algorithms and experiments to this module's packages.
package mlcg

import (
	"io"

	"mlcg/internal/cluster"
	"mlcg/internal/coarsen"
	"mlcg/internal/gen"
	"mlcg/internal/graph"
	"mlcg/internal/partition"
)

// Re-exported core types. The aliases make the internal implementation
// types usable by external callers without exposing the internal packages
// themselves.
type (
	// Graph is an undirected weighted graph in CSR form.
	Graph = graph.Graph
	// Edge is a builder input edge.
	Edge = graph.Edge
	// Stats summarizes a graph (size, degree skew, ...).
	Stats = graph.Stats

	// Mapping is a fine-to-coarse vertex mapping.
	Mapping = coarsen.Mapping
	// Mapper is a coarse-mapping algorithm.
	Mapper = coarsen.Mapper
	// Builder is a coarse-graph construction strategy.
	Builder = coarsen.Builder
	// Coarsener drives multilevel coarsening.
	Coarsener = coarsen.Coarsener
	// Hierarchy is the multilevel result.
	Hierarchy = coarsen.Hierarchy

	// BisectResult is the outcome of a bisection.
	BisectResult = partition.Result
	// FMBisector is the multilevel FM partitioner.
	FMBisector = partition.FMBisector
	// FMOptions tunes Fiduccia–Mattheyses refinement.
	FMOptions = partition.FMOptions
)

// NewGraph builds a validated graph from an undirected edge list;
// self-loops are dropped and duplicate edges merged.
func NewGraph(n int, edges []Edge) (*Graph, error) { return graph.FromEdges(n, edges) }

// ReadEdgeList parses the "n m" + "u v [w]" text format.
func ReadEdgeList(r io.Reader) (*Graph, error) { return graph.ReadEdgeList(r) }

// ReadBinary parses the compact binary CSR container.
func ReadBinary(r io.Reader) (*Graph, error) { return graph.ReadBinary(r) }

// Generators (synthetic stand-ins for the paper's workload classes).
var (
	// Grid2D returns a rows×cols lattice.
	Grid2D = gen.Grid2D
	// Grid3D returns an x×y×z lattice.
	Grid3D = gen.Grid3D
	// TriMesh returns a triangulated lattice (delaunay-like).
	TriMesh = gen.TriMesh
	// RGG returns a random geometric graph.
	RGG = gen.RGG
	// RMAT returns a Kronecker/R-MAT graph.
	RMAT = gen.RMAT
	// BA returns a Barabási–Albert preferential-attachment graph.
	BA = gen.BA
	// Mycielskian returns the k-th Mycielskian of a triangle.
	Mycielskian = gen.Mycielskian
)

// MapperByName returns one of the registered coarse-mapping algorithms:
// hec, hecseq, hec2, hec3, hem, hemseq, twohop, mis2, mis2fast, gosh,
// goshhec.
func MapperByName(name string) (Mapper, error) { return coarsen.MapperByName(name) }

// BuilderByName returns one of the registered construction strategies
// (see BuilderNames).
func BuilderByName(name string) (Builder, error) { return coarsen.BuilderByName(name) }

// MapperNames lists the available mapping algorithms.
func MapperNames() []string { return coarsen.MapperNames() }

// BuilderNames lists the available construction strategies.
func BuilderNames() []string { return coarsen.BuilderNames() }

// CoarsenOptions configures the one-call multilevel helper.
type CoarsenOptions struct {
	Cutoff    int    // stop below this vertex count (0 = 50, the paper's)
	MaxLevels int    // hierarchy cap (0 = 201, as in the paper's runs)
	Seed      uint64 // per-level random orders
	Workers   int    // parallelism (0 = GOMAXPROCS)
}

// Coarsen builds a multilevel hierarchy of g using the named mapper and
// builder (see MapperNames and BuilderNames).
func Coarsen(g *Graph, mapper, builder string, opt CoarsenOptions) (*Hierarchy, error) {
	m, err := coarsen.MapperByName(mapper)
	if err != nil {
		return nil, err
	}
	b, err := coarsen.BuilderByName(builder)
	if err != nil {
		return nil, err
	}
	c := &coarsen.Coarsener{
		Mapper: m, Builder: b,
		Cutoff: opt.Cutoff, MaxLevels: opt.MaxLevels,
		Seed: opt.Seed, Workers: opt.Workers,
	}
	return c.Run(g)
}

// BisectOptions configures the one-call bisection helpers.
type BisectOptions struct {
	Mapper  string // coarse-mapping algorithm (default "hec")
	Builder string // construction strategy (default "sort")
	Seed    uint64
	Workers int
}

func (o BisectOptions) coarsener() (coarsen.Coarsener, error) {
	mname := o.Mapper
	if mname == "" {
		mname = "hec"
	}
	bname := o.Builder
	if bname == "" {
		bname = "sort"
	}
	m, err := coarsen.MapperByName(mname)
	if err != nil {
		return coarsen.Coarsener{}, err
	}
	b, err := coarsen.BuilderByName(bname)
	if err != nil {
		return coarsen.Coarsener{}, err
	}
	return coarsen.Coarsener{Mapper: m, Builder: b, Seed: o.Seed, Workers: o.Workers}, nil
}

// FMBisect bisects g with multilevel coarsening, greedy graph growing, and
// Fiduccia–Mattheyses refinement — the paper's best pipeline when run with
// the default HEC mapper.
func FMBisect(g *Graph, opt BisectOptions) (*BisectResult, error) {
	c, err := opt.coarsener()
	if err != nil {
		return nil, err
	}
	b := &partition.FMBisector{Coarsener: c, Seed: opt.Seed}
	return b.Bisect(g)
}

// SpectralBisect bisects g with multilevel coarsening and power-iteration
// spectral refinement (the paper's primary case study).
func SpectralBisect(g *Graph, opt BisectOptions) (*BisectResult, error) {
	c, err := opt.coarsener()
	if err != nil {
		return nil, err
	}
	b := &partition.SpectralBisector{
		Coarsener: c,
		Fiedler:   partition.FiedlerOptions{Workers: opt.Workers},
		Seed:      opt.Seed,
	}
	return b.Bisect(g)
}

// EdgeCut returns the weight of edges crossing a bisection.
func EdgeCut(g *Graph, part []int32) int64 { return partition.EdgeCut(g, part) }

// KWayResult is the outcome of a k-way partition.
type KWayResult = partition.KWayResult

// KWayPartition splits g into k balanced parts by recursive multilevel FM
// bisection with proportional split targets.
func KWayPartition(g *Graph, k int, opt BisectOptions) (*KWayResult, error) {
	c, err := opt.coarsener()
	if err != nil {
		return nil, err
	}
	return partition.KWayFM(g, k, partition.KWayOptions{
		Mapper: c.Mapper, Builder: c.Builder, Seed: opt.Seed, Workers: opt.Workers,
	})
}

// KWayEdgeCut returns the weight of edges crossing any part boundary.
func KWayEdgeCut(g *Graph, part []int32) int64 { return partition.KWayEdgeCut(g, part) }

// ClusterResult is the outcome of multilevel clustering.
type ClusterResult = cluster.Result

// Cluster runs multilevel modularity clustering: coarsen until roughly k
// super-vertices remain, seed clusters from them, and refine with
// modularity-driven local moving at every level.
func Cluster(g *Graph, k int, opt BisectOptions) (*ClusterResult, error) {
	c, err := opt.coarsener()
	if err != nil {
		return nil, err
	}
	return cluster.Multilevel(g, cluster.Options{
		TargetClusters: k,
		Mapper:         c.Mapper, Builder: c.Builder,
		Seed: opt.Seed, Workers: opt.Workers,
	})
}

// Modularity returns Newman's weighted modularity of a labeling.
func Modularity(g *Graph, labels []int32) float64 { return cluster.Modularity(g, labels) }

// SpectralCoordinates computes a 2D multilevel spectral layout of g (the
// second and third Laplacian eigenvectors as coordinates).
func SpectralCoordinates(g *Graph, opt BisectOptions) ([][2]float64, error) {
	c, err := opt.coarsener()
	if err != nil {
		return nil, err
	}
	return partition.SpectralCoordinates(g, partition.DrawOptions{
		Coarsener: c,
		Fiedler:   partition.FiedlerOptions{Workers: opt.Workers},
		Seed:      opt.Seed,
	})
}

// MetisLike returns the sequential Metis-style baseline partitioner.
func MetisLike(seed uint64) *FMBisector { return partition.NewMetisLike(seed) }

// MtMetisLike returns the mt-Metis-style baseline partitioner.
func MtMetisLike(seed uint64, workers int) *FMBisector {
	return partition.NewMtMetisLike(seed, workers)
}
