package hierfmt

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"mlcg/internal/coarsen"
	"mlcg/internal/graph"
)

// SaveOptions tunes the writer. The zero value (raw int32 adjacency, no
// metadata) is the fastest to load and the default everywhere.
type SaveOptions struct {
	// CompressAdj stores adjacency sections as zigzag delta-varints
	// (FlagDeltaVarint): ~1–2 bytes per neighbor on canonical sorted rows
	// instead of 4, traded against a sequential decode on load.
	CompressAdj bool
	// Meta is an opaque caller payload stored verbatim in a META section
	// and returned byte-exactly by Load. mlcg-serve stores the normalized
	// build parameters here so a cache file is self-describing.
	Meta []byte
}

// levelBuilder is one LVSB entry: the construction strategy (and the
// adaptive policy's decision code) that built a level. JSON rather than
// fixed records because these are short free-form strings; the section is
// tiny either way.
type levelBuilder struct {
	Builder string `json:"builder,omitempty"`
	Reason  string `json:"reason,omitempty"`
}

// payload is one section staged for writing.
type payload struct {
	sec  section
	data []byte
}

// Save writes h as a version-1 container. The output is deterministic:
// equal hierarchies (and equal options) produce equal bytes.
//
// Not persisted: per-level obs spans, pass-mapped histograms, and the
// Dropped record of a stalled or discarded final attempt (the Stalled bit
// itself survives via FlagStalled). Everything a query path needs — graphs, maps, level
// shapes, timings, builder provenance — round-trips.
func Save(w io.Writer, h *coarsen.Hierarchy, opt SaveOptions) error {
	payloads, flags, err := stage(h, opt)
	if err != nil {
		return err
	}

	// Lay out: header, table, then 64-byte-aligned payloads.
	cur := align64(HeaderSize + int64(len(payloads))*SectionEntrySize)
	for i := range payloads {
		payloads[i].sec.offset = uint64(cur)
		payloads[i].sec.length = uint64(len(payloads[i].data))
		payloads[i].sec.crc = Checksum(payloads[i].data)
		cur = align64(cur + int64(len(payloads[i].data)))
	}

	bw := bufio.NewWriterSize(w, 1<<20)
	hdr := encodeHeader(header{
		version:   Version,
		flags:     flags,
		nsections: uint32(len(payloads)),
		nlevels:   uint32(len(h.Graphs)),
		fileSize:  uint64(cur),
	})
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var entry [SectionEntrySize]byte
	for i := range payloads {
		encodeSection(entry[:], payloads[i].sec)
		if _, err := bw.Write(entry[:]); err != nil {
			return err
		}
	}
	written := int64(HeaderSize + len(payloads)*SectionEntrySize)
	var zeros [SectionAlign]byte
	pad := func(to int64) error {
		for written < to {
			k := min(int64(len(zeros)), to-written)
			if _, err := bw.Write(zeros[:k]); err != nil {
				return err
			}
			written += k
		}
		return nil
	}
	for i := range payloads {
		if err := pad(int64(payloads[i].sec.offset)); err != nil {
			return err
		}
		if _, err := bw.Write(payloads[i].data); err != nil {
			return err
		}
		written += int64(len(payloads[i].data))
	}
	if err := pad(cur); err != nil {
		return err
	}
	return bw.Flush()
}

// stage validates h's shape and assembles the section payloads in the
// normative order (docs/FORMAT.md): per level XADJ/ADJC/EWGT[/VWGT], then
// the coarse maps, then LVST+LVSB when the hierarchy has levels, then META.
func stage(h *coarsen.Hierarchy, opt SaveOptions) ([]payload, uint32, error) {
	L := len(h.Graphs)
	if L == 0 {
		return nil, 0, fmt.Errorf("hierfmt: empty hierarchy (no graphs)")
	}
	if len(h.Maps) != L-1 {
		return nil, 0, fmt.Errorf("hierfmt: %d graphs need %d maps, have %d", L, L-1, len(h.Maps))
	}
	if len(h.Stats) != 0 && len(h.Stats) != L-1 {
		return nil, 0, fmt.Errorf("hierfmt: %d stats records for %d levels", len(h.Stats), L-1)
	}
	flags := uint32(0)
	if opt.CompressAdj {
		flags |= FlagDeltaVarint
	}
	if h.Stalled {
		flags |= FlagStalled
	}

	var out []payload
	add := func(kind, level uint32, count int, data []byte) {
		out = append(out, payload{sec: section{kind: kind, level: level, count: uint32(count)}, data: data})
	}
	for i, g := range h.Graphs {
		n := g.N()
		if len(g.Xadj) != n+1 || int64(len(g.Adj)) != g.Xadj[n] || len(g.Wgt) != len(g.Adj) {
			return nil, 0, fmt.Errorf("hierfmt: level %d graph has inconsistent CSR shape", i)
		}
		if n > graph.MaxParseVertices {
			return nil, 0, fmt.Errorf("hierfmt: level %d has %d vertices, format caps at %d", i, n, graph.MaxParseVertices)
		}
		lvl := uint32(i)
		add(KindXadj, lvl, n+1, i64Bytes(g.Xadj))
		if opt.CompressAdj {
			add(KindAdjc, lvl, len(g.Adj), encodeAdjVarint(g.Xadj, g.Adj))
		} else {
			add(KindAdjc, lvl, len(g.Adj), i32Bytes(g.Adj))
		}
		add(KindEwgt, lvl, len(g.Wgt), i64Bytes(g.Wgt))
		if g.VWgt != nil {
			if len(g.VWgt) != n {
				return nil, 0, fmt.Errorf("hierfmt: level %d VWgt covers %d of %d vertices", i, len(g.VWgt), n)
			}
			add(KindVwgt, lvl, n, i64Bytes(g.VWgt))
		}
	}
	for i, m := range h.Maps {
		if len(m) != h.Graphs[i].N() {
			return nil, 0, fmt.Errorf("hierfmt: map %d covers %d vertices, level has %d", i, len(m), h.Graphs[i].N())
		}
		add(KindCmap, uint32(i), len(m), i32Bytes(m))
	}
	if L > 1 {
		stats, builders := statRecords(h)
		add(KindLvst, 0, L-1, stats)
		lvsb, err := json.Marshal(builders)
		if err != nil {
			return nil, 0, err
		}
		add(KindLvsb, 0, len(lvsb), lvsb)
	}
	if len(opt.Meta) > 0 {
		add(KindMeta, 0, len(opt.Meta), opt.Meta)
	}
	return out, flags, nil
}

// statRecords encodes the LVST section and the parallel LVSB string list.
// Hierarchies without recorded stats (hand-assembled, or read through the
// legacy shim) get synthesized records: correct shapes, zero timings.
func statRecords(h *coarsen.Hierarchy) ([]byte, []levelBuilder) {
	L := len(h.Graphs)
	buf := make([]byte, (L-1)*LevelStatSize)
	builders := make([]levelBuilder, L-1)
	for i := 0; i < L-1; i++ {
		st := coarsen.LevelStats{
			N:  h.Graphs[i].NumV,
			NC: h.Graphs[i+1].NumV,
			M:  h.Graphs[i].M(), // LevelStats.M is the level's input-graph edge count
		}
		if len(h.Stats) == L-1 {
			st = h.Stats[i]
		}
		b := buf[i*LevelStatSize:]
		binary.LittleEndian.PutUint32(b[0:], uint32(st.N))
		binary.LittleEndian.PutUint32(b[4:], uint32(st.NC))
		binary.LittleEndian.PutUint64(b[8:], uint64(st.M))
		binary.LittleEndian.PutUint64(b[16:], uint64(st.MapTime.Nanoseconds()))
		binary.LittleEndian.PutUint64(b[24:], uint64(st.BuildTime.Nanoseconds()))
		binary.LittleEndian.PutUint32(b[32:], uint32(st.Passes))
		binary.LittleEndian.PutUint32(b[36:], 0)
		builders[i] = levelBuilder{Builder: st.Builder, Reason: st.BuildReason}
	}
	return buf, builders
}

// SaveGraph writes a single graph as a one-level container — the binary
// ingest/export format. LoadGraph is its inverse.
func SaveGraph(w io.Writer, g *graph.Graph, opt SaveOptions) error {
	return Save(w, &coarsen.Hierarchy{Graphs: []*graph.Graph{g}}, opt)
}
