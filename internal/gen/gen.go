// Package gen generates the synthetic graph workloads used to reproduce
// the paper's evaluation. The paper uses 20 SuiteSparse/OGB graphs split
// into a regular group and a skewed-degree group by the ratio of maximum to
// average degree (Table I); this package provides generators whose outputs
// land in the same two groups: meshes, random geometric graphs, and
// triangulations on the regular side; RMAT/Kronecker, preferential
// attachment, and Mycielskian constructions on the skewed side.
//
// All generators are deterministic in their seed, return validated,
// connected graphs (largest component extracted when the raw process can
// disconnect), and have unit edge weights — matching the paper's
// preprocessing ("initially unweighted but become weighted after one level
// of coarsening").
package gen

import (
	"math"

	"mlcg/internal/graph"
	"mlcg/internal/par"
)

// connect extracts the largest connected component of g, mirroring the
// paper's preprocessing step.
func connect(g *graph.Graph) *graph.Graph {
	lcc, _ := g.LargestComponent()
	return lcc
}

// Grid2D returns a rows×cols 4-neighbor lattice. A stand-in for the
// paper's very regular FEM/optimization matrices (nlpkkt160, channel050).
func Grid2D(rows, cols int) *graph.Graph {
	id := func(r, c int) int32 { return int32(r*cols + c) }
	edges := make([]graph.Edge, 0, 2*rows*cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				edges = append(edges, graph.Edge{U: id(r, c), V: id(r, c+1), W: 1})
			}
			if r+1 < rows {
				edges = append(edges, graph.Edge{U: id(r, c), V: id(r+1, c), W: 1})
			}
		}
	}
	return graph.MustFromEdges(rows*cols, edges)
}

// Grid3D returns an x×y×z 6-neighbor lattice, a stand-in for 3D CFD/FEM
// meshes (HV15R, CubeCoup, Flan1565).
func Grid3D(x, y, z int) *graph.Graph {
	id := func(i, j, k int) int32 { return int32((i*y+j)*z + k) }
	var edges []graph.Edge
	for i := 0; i < x; i++ {
		for j := 0; j < y; j++ {
			for k := 0; k < z; k++ {
				if k+1 < z {
					edges = append(edges, graph.Edge{U: id(i, j, k), V: id(i, j, k+1), W: 1})
				}
				if j+1 < y {
					edges = append(edges, graph.Edge{U: id(i, j, k), V: id(i, j+1, k), W: 1})
				}
				if i+1 < x {
					edges = append(edges, graph.Edge{U: id(i, j, k), V: id(i+1, j, k), W: 1})
				}
			}
		}
	}
	return graph.MustFromEdges(x*y*z, edges)
}

// TriMesh returns a triangulated rows×cols lattice (lattice edges plus one
// diagonal per cell), the classic "delaunay-like" planar mesh used as the
// stand-in for the delaunay_n24 family.
func TriMesh(rows, cols int, seed uint64) *graph.Graph {
	rng := par.NewRNG(seed)
	id := func(r, c int) int32 { return int32(r*cols + c) }
	var edges []graph.Edge
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				edges = append(edges, graph.Edge{U: id(r, c), V: id(r, c+1), W: 1})
			}
			if r+1 < rows {
				edges = append(edges, graph.Edge{U: id(r, c), V: id(r+1, c), W: 1})
			}
			if r+1 < rows && c+1 < cols {
				// Random diagonal orientation, as in a Delaunay
				// triangulation of jittered lattice points.
				if rng.Uint64()&1 == 0 {
					edges = append(edges, graph.Edge{U: id(r, c), V: id(r+1, c+1), W: 1})
				} else {
					edges = append(edges, graph.Edge{U: id(r, c+1), V: id(r+1, c), W: 1})
				}
			}
		}
	}
	return graph.MustFromEdges(rows*cols, edges)
}

// RGG returns a 2D random geometric graph: n points uniform in the unit
// square, an edge between points within distance radius. Grid hashing keeps
// construction near-linear. radius <= 0 picks the standard connectivity
// radius sqrt(2.2*ln(n)/(pi*n)). Stand-in for rgg_n24.
func RGG(n int, radius float64, seed uint64) *graph.Graph {
	if radius <= 0 {
		radius = math.Sqrt(2.2 * math.Log(float64(n)) / (math.Pi * float64(n)))
	}
	rng := par.NewRNG(seed)
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = rng.Float64()
		ys[i] = rng.Float64()
	}
	cells := int(1 / radius)
	if cells < 1 {
		cells = 1
	}
	cellOf := func(i int) int {
		cx := int(xs[i] * float64(cells))
		cy := int(ys[i] * float64(cells))
		if cx >= cells {
			cx = cells - 1
		}
		if cy >= cells {
			cy = cells - 1
		}
		return cx*cells + cy
	}
	buckets := make([][]int32, cells*cells)
	for i := 0; i < n; i++ {
		c := cellOf(i)
		buckets[c] = append(buckets[c], int32(i))
	}
	r2 := radius * radius
	var edges []graph.Edge
	for cx := 0; cx < cells; cx++ {
		for cy := 0; cy < cells; cy++ {
			for _, u := range buckets[cx*cells+cy] {
				for dx := -1; dx <= 1; dx++ {
					for dy := -1; dy <= 1; dy++ {
						nx, ny := cx+dx, cy+dy
						if nx < 0 || ny < 0 || nx >= cells || ny >= cells {
							continue
						}
						for _, v := range buckets[nx*cells+ny] {
							if v <= u {
								continue
							}
							ddx, ddy := xs[u]-xs[v], ys[u]-ys[v]
							if ddx*ddx+ddy*ddy <= r2 {
								edges = append(edges, graph.Edge{U: u, V: v, W: 1})
							}
						}
					}
				}
			}
		}
	}
	return connect(graph.MustFromEdges(n, edges))
}

// RoadLike returns a road-network-like graph: a 2D lattice with a fraction
// of edges removed and sparse long shortcuts, yielding the very low average
// degree and high diameter of europe_osm.
func RoadLike(rows, cols int, seed uint64) *graph.Graph {
	rng := par.NewRNG(seed)
	id := func(r, c int) int32 { return int32(r*cols + c) }
	var edges []graph.Edge
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols && rng.Float64() < 0.75 {
				edges = append(edges, graph.Edge{U: id(r, c), V: id(r, c+1), W: 1})
			}
			if r+1 < rows && rng.Float64() < 0.75 {
				edges = append(edges, graph.Edge{U: id(r, c), V: id(r+1, c), W: 1})
			}
		}
	}
	n := rows * cols
	for i := 0; i < n/200; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			edges = append(edges, graph.Edge{U: int32(u), V: int32(v), W: 1})
		}
	}
	return connect(graph.MustFromEdges(n, edges))
}

// Banded returns a banded diffusion-like graph: vertex i connects to
// i±1..i±band with probability prob. Stand-in for cage15 / MLGeer-style
// banded matrices.
func Banded(n, band int, prob float64, seed uint64) *graph.Graph {
	rng := par.NewRNG(seed)
	var edges []graph.Edge
	for i := 0; i < n; i++ {
		edges = append(edges, graph.Edge{U: int32(i), V: int32((i + 1) % n), W: 1})
		for d := 2; d <= band; d++ {
			if i+d < n && rng.Float64() < prob {
				edges = append(edges, graph.Edge{U: int32(i), V: int32(i + d), W: 1})
			}
		}
	}
	return graph.MustFromEdges(n, edges)
}

// ChainLike returns a kmer-style graph: many long paths cross-linked at
// sparse junction vertices, giving average degree barely above 2 with a
// moderately skewed hub distribution (kmer_U1a stand-in).
func ChainLike(n int, seed uint64) *graph.Graph {
	rng := par.NewRNG(seed)
	var edges []graph.Edge
	// Long backbone path.
	for i := 0; i < n-1; i++ {
		edges = append(edges, graph.Edge{U: int32(i), V: int32(i + 1), W: 1})
	}
	// Sparse junctions: ~n/64 hubs each adopting a handful of random chain
	// vertices, giving a max degree well above the ~2 average.
	hubs := n / 64
	if hubs < 1 {
		hubs = 1
	}
	for h := 0; h < hubs; h++ {
		hub := rng.Intn(n)
		k := 2 + rng.Intn(12)
		for j := 0; j < k; j++ {
			v := rng.Intn(n)
			if v != hub {
				edges = append(edges, graph.Edge{U: int32(hub), V: int32(v), W: 1})
			}
		}
	}
	return connect(graph.MustFromEdges(n, edges))
}

// RMAT returns a Kronecker/R-MAT graph with 2^scale vertices and roughly
// edgeFactor*2^scale undirected edges, with the canonical skew parameters
// (a,b,c) = (0.57, 0.19, 0.19). Stand-in for kron21 and web/social graphs.
func RMAT(scale int, edgeFactor int, seed uint64) *graph.Graph {
	n := 1 << scale
	target := int64(edgeFactor) * int64(n)
	rng := par.NewRNG(seed)
	const a, b, c = 0.57, 0.19, 0.19
	edges := make([]graph.Edge, 0, target)
	for int64(len(edges)) < target {
		var u, v int
		for bit := 0; bit < scale; bit++ {
			r := rng.Float64()
			switch {
			case r < a: // top-left
			case r < a+b:
				v |= 1 << bit
			case r < a+b+c:
				u |= 1 << bit
			default:
				u |= 1 << bit
				v |= 1 << bit
			}
		}
		if u != v {
			edges = append(edges, graph.Edge{U: int32(u), V: int32(v), W: 1})
		}
	}
	return connect(graph.MustFromEdges(n, edges))
}

// BA returns a Barabási–Albert preferential-attachment graph: each new
// vertex attaches to k existing vertices chosen proportional to degree.
// Stand-in for social networks (Orkut, hollywood09).
func BA(n, k int, seed uint64) *graph.Graph {
	if k < 1 {
		k = 1
	}
	rng := par.NewRNG(seed)
	// targets implements the standard repeated-endpoint trick: choosing a
	// uniform element of the endpoint list is degree-proportional.
	targets := make([]int32, 0, 2*n*k)
	var edges []graph.Edge
	// Seed clique of k+1 vertices.
	for i := 0; i <= k; i++ {
		for j := i + 1; j <= k; j++ {
			edges = append(edges, graph.Edge{U: int32(i), V: int32(j), W: 1})
			targets = append(targets, int32(i), int32(j))
		}
	}
	chosen := make([]int32, 0, k)
	for v := k + 1; v < n; v++ {
		chosen = chosen[:0]
		for len(chosen) < k {
			t := targets[rng.Intn(len(targets))]
			dup := false
			for _, c := range chosen {
				if c == t {
					dup = true
					break
				}
			}
			if !dup {
				chosen = append(chosen, t)
			}
		}
		for _, t := range chosen {
			edges = append(edges, graph.Edge{U: int32(v), V: t, W: 1})
			targets = append(targets, int32(v), t)
		}
	}
	return graph.MustFromEdges(n, edges)
}

// Mycielskian returns the k-th Mycielskian of a triangle. Each step maps a
// graph with n vertices to one with 2n+1 vertices, preserving
// triangle-freeness while increasing chromatic number — the construction
// behind the paper's mycielskian17 instance, a small-n, huge-m, highly
// skewed graph.
func Mycielskian(k int) *graph.Graph {
	g := graph.MustFromEdges(3, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 2, V: 0, W: 1}})
	for step := 0; step < k; step++ {
		n := g.N()
		var edges []graph.Edge
		for u := int32(0); u < g.NumV; u++ {
			adj, _ := g.Neighbors(u)
			for _, v := range adj {
				if u < v {
					// original edge
					edges = append(edges, graph.Edge{U: u, V: v, W: 1})
					// shadow edges u'–v and u–v'
					edges = append(edges, graph.Edge{U: int32(n) + u, V: v, W: 1})
					edges = append(edges, graph.Edge{U: u, V: int32(n) + v, W: 1})
				}
			}
		}
		z := int32(2 * n)
		for u := int32(0); int(u) < n; u++ {
			edges = append(edges, graph.Edge{U: int32(n) + u, V: z, W: 1})
		}
		g = graph.MustFromEdges(2*n+1, edges)
	}
	return g
}

// WebLike returns a web-crawl-like graph: power-law communities of pages
// with dense intra-links plus hub pages, producing the extreme degree skew
// of ic04 (Δ/avg in the thousands).
func WebLike(n int, seed uint64) *graph.Graph {
	rng := par.NewRNG(seed)
	var edges []graph.Edge
	// Backbone path so the crawl is connected.
	for i := 0; i < n-1; i++ {
		edges = append(edges, graph.Edge{U: int32(i), V: int32(i + 1), W: 1})
	}
	// A few mega-hubs linked to a large random fraction of pages.
	hubs := 4
	for h := 0; h < hubs; h++ {
		hub := int32(rng.Intn(n))
		k := n / 8
		for j := 0; j < k; j++ {
			v := int32(rng.Intn(n))
			if v != hub {
				edges = append(edges, graph.Edge{U: hub, V: v, W: 1})
			}
		}
	}
	// Power-law sized cliques ("link farms").
	for c := 0; c < n/100; c++ {
		size := 3 + int(math.Floor(3/math.Sqrt(rng.Float64()+0.01)))
		if size > 24 {
			size = 24
		}
		base := rng.Intn(n - size)
		for i := 0; i < size; i++ {
			for j := i + 1; j < size; j++ {
				edges = append(edges, graph.Edge{U: int32(base + i), V: int32(base + j), W: 1})
			}
		}
	}
	return connect(graph.MustFromEdges(n, edges))
}

// Caveman returns a connected caveman-style graph: cliques of the given
// size joined in a ring, with extra random rewiring and a few hub vertices
// linked into a large fraction of the cliques (the product-category pages
// of a co-purchase network). Stand-in for ogbn-products, whose skew comes
// from exactly such hubs over community structure.
func Caveman(cliques, size int, rewire float64, seed uint64) *graph.Graph {
	rng := par.NewRNG(seed)
	n := cliques * size
	var edges []graph.Edge
	for c := 0; c < cliques; c++ {
		base := c * size
		for i := 0; i < size; i++ {
			for j := i + 1; j < size; j++ {
				edges = append(edges, graph.Edge{U: int32(base + i), V: int32(base + j), W: 1})
			}
		}
		next := ((c+1)%cliques)*size + rng.Intn(size)
		edges = append(edges, graph.Edge{U: int32(base), V: int32(next), W: 1})
	}
	extra := int(float64(n) * rewire)
	for i := 0; i < extra; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			edges = append(edges, graph.Edge{U: int32(u), V: int32(v), W: 1})
		}
	}
	// Hubs: 3 vertices each touching ~2/3 of the cliques.
	for h := 0; h < 3 && h < n; h++ {
		hub := int32(rng.Intn(n))
		for c := 0; c < cliques; c++ {
			if rng.Float64() < 0.67 {
				v := int32(c*size + rng.Intn(size))
				if v != hub {
					edges = append(edges, graph.Edge{U: hub, V: v, W: 1})
				}
			}
		}
	}
	return connect(graph.MustFromEdges(n, edges))
}

// Hub-and-spoke bipartite-ish citation stand-in: older vertices accumulate
// citations with a heavy tail; every vertex cites a handful of others.
func CitationLike(n int, seed uint64) *graph.Graph {
	rng := par.NewRNG(seed)
	var edges []graph.Edge
	for v := 1; v < n; v++ {
		refs := 1 + rng.Intn(5)
		for j := 0; j < refs; j++ {
			// Preferential to low ids (older, more-cited papers): squaring
			// the uniform variate biases toward 0.
			f := rng.Float64()
			u := int(f * f * float64(v))
			if u != v {
				edges = append(edges, graph.Edge{U: int32(u), V: int32(v), W: 1})
			}
		}
	}
	return connect(graph.MustFromEdges(n, edges))
}

// PowerLaw returns a configuration-model graph with a prescribed
// power-law degree sequence: degrees are drawn from P(d) ∝ d^(-gamma) on
// [minDeg, maxDeg], half-edges are shuffled and paired, and self-loops /
// parallel edges are dropped (the standard erased configuration model).
// The largest connected component is returned. This gives precise control
// over the degree skew Δ/(2m/n) that drives the paper's regular/skewed
// grouping.
func PowerLaw(n int, gamma float64, minDeg, maxDeg int, seed uint64) *graph.Graph {
	if minDeg < 1 {
		minDeg = 1
	}
	if maxDeg < minDeg {
		maxDeg = minDeg
	}
	rng := par.NewRNG(seed)

	// Discrete inverse-CDF sampling of d^(-gamma) on [minDeg, maxDeg].
	weights := make([]float64, maxDeg-minDeg+1)
	var total float64
	for i := range weights {
		d := float64(minDeg + i)
		weights[i] = math.Pow(d, -gamma)
		total += weights[i]
	}
	cdf := make([]float64, len(weights))
	acc := 0.0
	for i, w := range weights {
		acc += w / total
		cdf[i] = acc
	}
	sample := func() int {
		r := rng.Float64()
		lo, hi := 0, len(cdf)-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cdf[mid] < r {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return minDeg + lo
	}

	// Degree sequence with even half-edge total.
	deg := make([]int, n)
	half := 0
	for i := range deg {
		deg[i] = sample()
		half += deg[i]
	}
	if half%2 == 1 {
		deg[0]++
	}

	// Half-edge list, shuffled, paired.
	stubs := make([]int32, 0, half+1)
	for v, d := range deg {
		for j := 0; j < d; j++ {
			stubs = append(stubs, int32(v))
		}
	}
	for i := len(stubs) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		stubs[i], stubs[j] = stubs[j], stubs[i]
	}
	edges := make([]graph.Edge, 0, len(stubs)/2)
	for i := 0; i+1 < len(stubs); i += 2 {
		if stubs[i] != stubs[i+1] {
			edges = append(edges, graph.Edge{U: stubs[i], V: stubs[i+1], W: 1})
		}
	}
	return connect(graph.MustFromEdges(n, edges))
}
