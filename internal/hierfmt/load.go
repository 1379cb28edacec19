package hierfmt

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"mlcg/internal/coarsen"
	"mlcg/internal/graph"
)

// LoadOptions tunes the reader. The zero value is the default:
// structural validation only.
type LoadOptions struct {
	// FullValidate additionally runs graph.Validate on every level — the
	// O(n+m) symmetry and duplicate check, which allocates about 20n + 12m
	// bytes of scratch. The default structural check is O(n+m) without
	// scratch: offsets monotone, neighbor ids and map targets in range,
	// edge weights positive. Checksums make silent corruption loud either
	// way; FullValidate is for distrusted writers, not distrusted media.
	FullValidate bool
}

// Load parses a version-1 container from data (typically a whole-file
// read) and returns the hierarchy, in storage of its own, plus the
// caller metadata stored at save time (nil if none).
//
// The reader is hardened against hostile input, extending the chunked
// length discipline of graph.ReadBinary to a whole container: every
// section's offset and length are bounds-checked against len(data) and
// against each other (64-byte alignment, strictly increasing, no overlap)
// before anything is allocated or touched, every payload must pass its
// CRC-32C, and element counts are cross-checked against section byte
// lengths and the CSR/map shapes they claim to describe. A lying table
// can therefore cost at most the bytes the attacker actually sent.
func Load(data []byte, opt LoadOptions) (*coarsen.Hierarchy, []byte, error) {
	hdr, err := decodeHeader(data)
	if err != nil {
		return nil, nil, err
	}
	if hdr.fileSize != uint64(len(data)) {
		return nil, nil, fmt.Errorf("hierfmt: header claims %d bytes, have %d", hdr.fileSize, len(data))
	}
	tableEnd := int64(HeaderSize) + int64(hdr.nsections)*SectionEntrySize
	if tableEnd > int64(len(data)) {
		return nil, nil, fmt.Errorf("hierfmt: section table (%d entries) exceeds file size %d", hdr.nsections, len(data))
	}

	// Pass 1: decode and bounds-check the whole table before interpreting
	// any payload. Padding gaps must be zero — the writer emits only zeros
	// there, and enforcing it keeps accepted containers canonical: anything
	// Load accepts re-saves to the identical bytes, so corruption in the
	// padding is as loud as corruption in a payload.
	zeroPad := func(lo, hi uint64) error {
		for _, b := range data[lo:hi] {
			if b != 0 {
				return fmt.Errorf("hierfmt: non-zero padding in [%d,%d)", lo, hi)
			}
		}
		return nil
	}
	secs := make([]section, hdr.nsections)
	rawEnd := uint64(tableEnd) // unaligned end of the previous structure
	for i := range secs {
		s := decodeSection(data[HeaderSize+i*SectionEntrySize:])
		if s.offset%SectionAlign != 0 {
			return nil, nil, fmt.Errorf("hierfmt: section %d (%s) offset %d not %d-byte aligned", i, kindName(s.kind), s.offset, SectionAlign)
		}
		// The canonical layout admits exactly one offset per section; an
		// offset below it overlaps the previous section, above it pads
		// non-canonically. Rejecting both keeps Load∘Save the identity.
		if s.offset != uint64(align64(int64(rawEnd))) {
			return nil, nil, fmt.Errorf("hierfmt: section %d (%s) at %d overlaps or strays from canonical offset %d", i, kindName(s.kind), s.offset, align64(int64(rawEnd)))
		}
		if s.length > uint64(len(data)) || s.offset+s.length > uint64(len(data)) {
			return nil, nil, fmt.Errorf("hierfmt: section %d (%s) [%d,+%d) exceeds file size %d", i, kindName(s.kind), s.offset, s.length, len(data))
		}
		if err := checkShape(s); err != nil {
			return nil, nil, fmt.Errorf("hierfmt: section %d: %w", i, err)
		}
		if got := Checksum(data[s.offset : s.offset+s.length]); got != s.crc {
			return nil, nil, fmt.Errorf("hierfmt: section %d (%s) checksum mismatch (table %#x, computed %#x)", i, kindName(s.kind), s.crc, got)
		}
		if err := zeroPad(rawEnd, s.offset); err != nil {
			return nil, nil, err
		}
		secs[i] = s
		rawEnd = s.offset + s.length
	}
	if uint64(align64(int64(rawEnd))) != hdr.fileSize {
		return nil, nil, fmt.Errorf("hierfmt: trailing bytes: sections end at %d, file size %d", rawEnd, hdr.fileSize)
	}
	if err := zeroPad(rawEnd, hdr.fileSize); err != nil {
		return nil, nil, err
	}

	// Pass 2: walk the normative section order, building each level.
	c := &cursor{data: data, secs: secs, varint: hdr.flags&FlagDeltaVarint != 0}
	h := &coarsen.Hierarchy{Stalled: hdr.flags&FlagStalled != 0}
	for lvl := uint32(0); lvl < hdr.nlevels; lvl++ {
		g, err := c.readGraph(lvl)
		if err != nil {
			return nil, nil, fmt.Errorf("hierfmt: level %d: %w", lvl, err)
		}
		h.Graphs = append(h.Graphs, g)
	}
	for lvl := uint32(0); lvl+1 < hdr.nlevels; lvl++ {
		m, err := c.readMap(lvl, h.Graphs[lvl], h.Graphs[lvl+1])
		if err != nil {
			return nil, nil, fmt.Errorf("hierfmt: map %d: %w", lvl, err)
		}
		h.Maps = append(h.Maps, m)
	}
	if hdr.nlevels > 1 {
		if err := c.readStats(h); err != nil {
			return nil, nil, err
		}
	}
	var meta []byte
	if s, ok := c.take(KindMeta, 0); ok {
		meta = append([]byte(nil), c.payload(s)...)
	}
	if c.pos != len(secs) {
		s := secs[c.pos]
		return nil, nil, fmt.Errorf("hierfmt: unexpected section %s (level %d) after container contents", kindName(s.kind), s.level)
	}
	if opt.FullValidate {
		for i, g := range h.Graphs {
			if err := g.Validate(); err != nil {
				return nil, nil, fmt.Errorf("hierfmt: level %d: %w", i, err)
			}
		}
	}
	return h, meta, nil
}

// checkShape cross-checks a section's element count against its byte
// length. Varint adjacency has a variable width but at least one byte per
// element, which still bounds allocations by the wire size.
func checkShape(s section) error {
	switch s.kind {
	case KindXadj, KindEwgt, KindVwgt:
		if uint64(s.count)*8 != s.length {
			return fmt.Errorf("%s claims %d elements in %d bytes", kindName(s.kind), s.count, s.length)
		}
	case KindAdjc:
		// Raw width is checked at read time (depends on the varint flag);
		// here enforce the universal lower bound.
		if uint64(s.count) > s.length && s.length != uint64(s.count)*4 {
			return fmt.Errorf("ADJC claims %d elements in %d bytes", s.count, s.length)
		}
	case KindCmap:
		if uint64(s.count)*4 != s.length {
			return fmt.Errorf("CMAP claims %d elements in %d bytes", s.count, s.length)
		}
	case KindLvst:
		if uint64(s.count)*LevelStatSize != s.length {
			return fmt.Errorf("LVST claims %d records in %d bytes", s.count, s.length)
		}
	case KindLvsb, KindMeta:
		if uint64(s.count) != s.length {
			return fmt.Errorf("%s count %d != length %d", kindName(s.kind), s.count, s.length)
		}
	default:
		return fmt.Errorf("unknown section kind %s", kindName(s.kind))
	}
	return nil
}

// cursor walks the section list in normative order.
type cursor struct {
	data   []byte
	secs   []section
	pos    int
	varint bool
}

func (c *cursor) payload(s section) []byte {
	return c.data[s.offset : s.offset+s.length]
}

// take consumes the next section if it matches kind and level.
func (c *cursor) take(kind, level uint32) (section, bool) {
	if c.pos >= len(c.secs) {
		return section{}, false
	}
	s := c.secs[c.pos]
	if s.kind != kind || s.level != level {
		return section{}, false
	}
	c.pos++
	return s, true
}

func (c *cursor) need(kind, level uint32) (section, error) {
	s, ok := c.take(kind, level)
	if !ok {
		got := "end of table"
		if c.pos < len(c.secs) {
			got = fmt.Sprintf("%s (level %d)", kindName(c.secs[c.pos].kind), c.secs[c.pos].level)
		}
		return s, fmt.Errorf("want section %s, have %s", kindName(kind), got)
	}
	return s, nil
}

// int64s decodes the section's int64 payload into fresh storage.
func (c *cursor) int64s(s section) []int64 {
	return bytesToI64(c.payload(s), int(s.count))
}

// int32s is int64s for int32 payloads.
func (c *cursor) int32s(s section) []int32 {
	return bytesToI32(c.payload(s), int(s.count))
}

// readGraph assembles one level's CSR and runs the structural check.
func (c *cursor) readGraph(lvl uint32) (*graph.Graph, error) {
	sx, err := c.need(KindXadj, lvl)
	if err != nil {
		return nil, err
	}
	if sx.count == 0 {
		return nil, fmt.Errorf("empty XADJ")
	}
	n := int(sx.count) - 1
	if n > graph.MaxParseVertices {
		return nil, fmt.Errorf("vertex count %d exceeds format cap %d", n, graph.MaxParseVertices)
	}
	xadj := c.int64s(sx)
	if xadj[0] != 0 {
		return nil, fmt.Errorf("Xadj[0] = %d, want 0", xadj[0])
	}
	for i := 0; i < n; i++ {
		if xadj[i+1] < xadj[i] {
			return nil, fmt.Errorf("Xadj decreasing at %d", i)
		}
	}
	nnz := xadj[n]

	sa, err := c.need(KindAdjc, lvl)
	if err != nil {
		return nil, err
	}
	if int64(sa.count) != nnz {
		return nil, fmt.Errorf("ADJC has %d elements, Xadj claims %d", sa.count, nnz)
	}
	var adj []int32
	if c.varint {
		adj, err = decodeAdjVarint(c.payload(sa), xadj, int32(n))
		if err != nil {
			return nil, err
		}
	} else {
		if uint64(sa.count)*4 != sa.length {
			return nil, fmt.Errorf("raw ADJC claims %d elements in %d bytes", sa.count, sa.length)
		}
		adj = c.int32s(sa)
		for _, v := range adj {
			if v < 0 || int(v) >= n {
				return nil, fmt.Errorf("neighbor id %d out of range [0,%d)", v, n)
			}
		}
	}

	sw, err := c.need(KindEwgt, lvl)
	if err != nil {
		return nil, err
	}
	if int64(sw.count) != nnz {
		return nil, fmt.Errorf("EWGT has %d elements, Xadj claims %d", sw.count, nnz)
	}
	wgt := c.int64s(sw)
	if err := checkWeights(wgt, "edge"); err != nil {
		return nil, err
	}

	g := &graph.Graph{NumV: int32(n), Xadj: xadj, Adj: adj, Wgt: wgt}
	if sv, ok := c.take(KindVwgt, lvl); ok {
		if int(sv.count) != n {
			return nil, fmt.Errorf("VWGT covers %d of %d vertices", sv.count, n)
		}
		g.VWgt = c.int64s(sv)
		if err := checkWeights(g.VWgt, "vertex"); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// checkWeights is the structural weight rule for EWGT and VWGT: every
// weight is positive and the running total stays within int64.
func checkWeights(ws []int64, what string) error {
	var total int64
	for _, w := range ws {
		if w <= 0 {
			return fmt.Errorf("non-positive %s weight %d", what, w)
		}
		if w > math.MaxInt64-total {
			return fmt.Errorf("%s weight total overflows int64", what)
		}
		total += w
	}
	return nil
}

// readMap reads one coarse map and range-checks it against its two levels.
func (c *cursor) readMap(lvl uint32, fine, coarse *graph.Graph) ([]int32, error) {
	s, err := c.need(KindCmap, lvl)
	if err != nil {
		return nil, err
	}
	if int(s.count) != fine.N() {
		return nil, fmt.Errorf("covers %d vertices, level has %d", s.count, fine.N())
	}
	m := c.int32s(s)
	nc := coarse.NumV
	for u, a := range m {
		if a < 0 || a >= nc {
			return nil, fmt.Errorf("vertex %d -> %d out of [0,%d)", u, a, nc)
		}
	}
	return m, nil
}

// readStats decodes LVST + LVSB into h.Stats, cross-checking each record's
// shape fields against the graphs they describe.
func (c *cursor) readStats(h *coarsen.Hierarchy) error {
	L := len(h.Graphs)
	st, err := c.need(KindLvst, 0)
	if err != nil {
		return fmt.Errorf("hierfmt: %w", err)
	}
	if int(st.count) != L-1 {
		return fmt.Errorf("hierfmt: LVST has %d records for %d levels", st.count, L-1)
	}
	sb, err := c.need(KindLvsb, 0)
	if err != nil {
		return fmt.Errorf("hierfmt: %w", err)
	}
	var builders []levelBuilder
	if err := json.Unmarshal(c.payload(sb), &builders); err != nil {
		return fmt.Errorf("hierfmt: LVSB: %w", err)
	}
	if len(builders) != L-1 {
		return fmt.Errorf("hierfmt: LVSB has %d entries for %d levels", len(builders), L-1)
	}
	buf := c.payload(st)
	h.Stats = make([]coarsen.LevelStats, L-1)
	for i := 0; i < L-1; i++ {
		b := buf[i*LevelStatSize:]
		rec := coarsen.LevelStats{
			N:           int32(binary.LittleEndian.Uint32(b[0:])),
			NC:          int32(binary.LittleEndian.Uint32(b[4:])),
			M:           int64(binary.LittleEndian.Uint64(b[8:])),
			MapTime:     time.Duration(binary.LittleEndian.Uint64(b[16:])),
			BuildTime:   time.Duration(binary.LittleEndian.Uint64(b[24:])),
			Passes:      int(int32(binary.LittleEndian.Uint32(b[32:]))),
			Builder:     builders[i].Builder,
			BuildReason: builders[i].Reason,
		}
		if rec.N != h.Graphs[i].NumV || rec.NC != h.Graphs[i+1].NumV || rec.M != h.Graphs[i].M() {
			return fmt.Errorf("hierfmt: LVST record %d (n=%d nc=%d m=%d) contradicts graphs (n=%d nc=%d m=%d)",
				i, rec.N, rec.NC, rec.M, h.Graphs[i].NumV, h.Graphs[i+1].NumV, h.Graphs[i].M())
		}
		if binary.LittleEndian.Uint32(b[36:]) != 0 {
			return fmt.Errorf("hierfmt: LVST record %d has non-zero reserved field", i)
		}
		h.Stats[i] = rec
	}
	return nil
}

// LoadGraph reads a one-level container written by SaveGraph.
func LoadGraph(data []byte, opt LoadOptions) (*graph.Graph, []byte, error) {
	h, meta, err := Load(data, opt)
	if err != nil {
		return nil, nil, err
	}
	if len(h.Graphs) != 1 {
		return nil, nil, fmt.Errorf("hierfmt: container holds a %d-level hierarchy, want a single graph", len(h.Graphs))
	}
	return h.Graphs[0], meta, nil
}
