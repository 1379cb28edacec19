package coarsen

import (
	"encoding/binary"
	"testing"

	"mlcg/internal/graph"
	"mlcg/internal/par"
)

// fuzzWeightedCSR decodes a graph of 1..48 vertices: n from the first byte,
// then 7-byte edge records (u, v, 40-bit little-endian weight). Weights lie
// in [1, 2^40) and at most 256 edges are read, so every coarse weight stays
// far below 2^53 and the float64 SpGEMM reference is exact. Vertex weights
// vary with the vertex id so conservation checks are not trivially n.
func fuzzWeightedCSR(in []byte) *graph.Graph {
	if len(in) == 0 {
		return nil
	}
	n := int(in[0])%48 + 1
	var edges []graph.Edge
	for i := 1; i+7 <= len(in) && len(edges) < 256; i += 7 {
		var w uint64
		for k := 0; k < 5; k++ {
			w |= uint64(in[i+2+k]) << (8 * k)
		}
		edges = append(edges, graph.Edge{
			U: int32(int(in[i]) % n),
			V: int32(int(in[i+1]) % n),
			W: int64(w%(1<<40-1)) + 1,
		})
	}
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		return nil
	}
	g.VWgt = make([]int64, n)
	for u := range g.VWgt {
		g.VWgt[u] = int64(u%5) + 1
	}
	return g
}

// decodeFuzzMapping decodes a possibly hostile mapping for n vertices: a
// mode byte, a little-endian int32 coarse count, then one signed id byte
// per entry. Mode 0 keeps the raw values, so the length, the id range and
// compactness are all unchecked. Any other mode folds the bytes into a
// compact mapping onto at most n aggregates, so valid mappings are common
// too.
func decodeFuzzMapping(in []byte, n int) *Mapping {
	var hdr [5]byte
	copy(hdr[:], in)
	ids := in[min(len(in), 5):]
	nc := int32(binary.LittleEndian.Uint32(hdr[1:]))
	if hdr[0] == 0 {
		m := &Mapping{M: make([]int32, len(ids)), NC: nc}
		for i, b := range ids {
			m.M[i] = int32(int8(b))
		}
		return m
	}
	k := int(uint32(nc)%uint32(n)) + 1
	m := &Mapping{M: make([]int32, n)}
	label := make(map[int]int32)
	for u := range m.M {
		raw := u % k
		if u < len(ids) {
			raw = int(ids[u]) % k
		}
		a, ok := label[raw]
		if !ok {
			a = m.NC
			label[raw] = a
			m.NC++
		}
		m.M[u] = a
	}
	return m
}

// encodeFuzzMapping is the inverse of decodeFuzzMapping, for seeds.
func encodeFuzzMapping(mode byte, nc int32, ids ...int8) []byte {
	out := []byte{mode, 0, 0, 0, 0}
	binary.LittleEndian.PutUint32(out[1:], uint32(nc))
	for _, a := range ids {
		out = append(out, byte(a))
	}
	return out
}

// encodeFuzzGraph is the inverse of fuzzWeightedCSR's edge decoding, for
// seeds (n must be in 1..48 and weights in [1, 2^40)).
func encodeFuzzGraph(n int, edges ...graph.Edge) []byte {
	out := []byte{byte(n - 1)}
	for _, e := range edges {
		w := uint64(e.W - 1)
		out = append(out, byte(e.U), byte(e.V),
			byte(w), byte(w>>8), byte(w>>16), byte(w>>24), byte(w>>32))
	}
	return out
}

// FuzzBuildersAgree checks every registered builder against the algebraic
// reference P·A·Pᵀ (BuildSpGEMM) on small weighted graphs and hostile
// mappings. An invalid mapping must make every builder return an error,
// never panic. A valid one must give every builder the reference graph
// after SortAdjacency, with vertex weight conserved and edge weight
// conserved minus the weight folded inside aggregates.
func FuzzBuildersAgree(f *testing.F) {
	path := encodeFuzzGraph(6,
		graph.Edge{U: 0, V: 1, W: 1}, graph.Edge{U: 1, V: 2, W: 2}, graph.Edge{U: 2, V: 3, W: 3},
		graph.Edge{U: 3, V: 4, W: 4}, graph.Edge{U: 4, V: 5, W: 5})
	heavy := encodeFuzzGraph(5,
		graph.Edge{U: 0, V: 1, W: 1<<40 - 1}, graph.Edge{U: 0, V: 2, W: 1<<40 - 1},
		graph.Edge{U: 1, V: 3, W: 1<<40 - 1}, graph.Edge{U: 2, V: 3, W: 1<<39 + 7},
		graph.Edge{U: 3, V: 4, W: 1})
	star := encodeFuzzGraph(9,
		graph.Edge{U: 0, V: 1, W: 3}, graph.Edge{U: 0, V: 2, W: 1}, graph.Edge{U: 0, V: 3, W: 1},
		graph.Edge{U: 0, V: 4, W: 1}, graph.Edge{U: 0, V: 5, W: 2}, graph.Edge{U: 0, V: 6, W: 1},
		graph.Edge{U: 0, V: 7, W: 1}, graph.Edge{U: 0, V: 8, W: 9}, graph.Edge{U: 1, V: 2, W: 4})
	f.Add(path, encodeFuzzMapping(1, 3, 0, 0, 1, 1, 2, 2))       // pairs
	f.Add(path, encodeFuzzMapping(1, 0, 0, 0, 0, 0, 0, 0))       // all to one aggregate
	f.Add(path, encodeFuzzMapping(1, 5, 0, 1, 2, 3, 4, 5))       // identity
	f.Add(heavy, encodeFuzzMapping(1, 1, 0, 1, 1, 0, 0))         // heavy weights merge
	f.Add(star, encodeFuzzMapping(1, 2, 0, 0, 1, 0, 1, 0, 1, 1)) // hub fold
	f.Add(path, encodeFuzzMapping(0, 3, 0, 0, 1, 1, 2, 2))       // raw and valid
	f.Add(path, encodeFuzzMapping(0, 3, 0, 0, 1, 1, 2))          // too short
	f.Add(path, encodeFuzzMapping(0, 3, 0, 0, 1, 1, 2, 5))       // id out of range
	f.Add(path, encodeFuzzMapping(0, 3, 0, 0, 1, 1, 2, -1))      // negative id
	f.Add(path, encodeFuzzMapping(0, 4, 0, 0, 1, 1, 3, 3))       // not compact
	f.Add(path, encodeFuzzMapping(0, 0, 0, 0, 0, 0, 0, 0))       // zero coarse count
	f.Add(path, encodeFuzzMapping(0, -3, 0, 0, 1, 1, 2, 2))      // negative coarse count
	f.Add(path, encodeFuzzMapping(0, 1<<31-1, 0, 0, 1, 1, 2, 2)) // huge coarse count
	f.Fuzz(func(t *testing.T, gIn, mIn []byte) {
		g := fuzzWeightedCSR(gIn)
		if g == nil {
			return
		}
		m := decodeFuzzMapping(mIn, g.N())
		const p = 2
		var ref *graph.Graph
		if m.Validate(g.N()) == nil {
			var err error
			if ref, err = (BuildSpGEMM{}).Build(g, m, par.Exec{P: p}); err != nil {
				t.Fatalf("spgemm reference: %v", err)
			}
			ref.SortAdjacency(1)
		}
		for _, name := range BuilderNames() {
			b, err := BuilderByName(name)
			if err != nil {
				t.Fatal(err)
			}
			cg, err := b.Build(g, m, par.Exec{P: p})
			if ref == nil {
				if err == nil {
					t.Fatalf("%s accepted invalid mapping M=%v NC=%d", name, m.M, m.NC)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := coarseInvariantErr(g, m, cg); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			cg.SortAdjacency(1)
			if !graph.Equal(ref, cg) {
				t.Fatalf("%s disagrees with P·A·Pᵀ for M=%v", name, m.M)
			}
		}
	})
}
