package hierfmt

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"mlcg/internal/gen"
	"mlcg/internal/graph"
)

// mutate returns a copy of data with fn applied.
func mutate(data []byte, fn func(b []byte)) []byte {
	out := append([]byte(nil), data...)
	fn(out)
	return out
}

// fixHeaderCRC recomputes the header checksum so a mutation tests the
// field's own validation rather than tripping the CRC first.
func fixHeaderCRC(b []byte) {
	binary.LittleEndian.PutUint32(b[60:], Checksum(b[:60]))
}

// TestLoadRejectsHostileInput drives the reader through every hardening
// branch: each mutant must fail with a descriptive error, never a panic or
// a huge allocation (the fuzz target additionally hammers this with
// arbitrary bytes).
func TestLoadRejectsHostileInput(t *testing.T) {
	h := buildHier(t, gen.Grid2D(30, 30), 2)
	data := saveBytes(t, h, SaveOptions{Meta: []byte("m")})
	secOff := func(i int) int { return HeaderSize + i*SectionEntrySize }

	cases := []struct {
		name string
		in   []byte
		want string // substring of the expected error
	}{
		{"empty", nil, "too short"},
		{"short-header", data[:40], "too short"},
		{"bad-magic", mutate(data, func(b []byte) { b[0] ^= 0xff }), "bad magic"},
		{"bad-header-crc", mutate(data, func(b []byte) { b[61] ^= 0xff }), "header checksum"},
		{"future-version", mutate(data, func(b []byte) {
			binary.LittleEndian.PutUint32(b[8:], 2)
			fixHeaderCRC(b)
		}), "unsupported version"},
		{"unknown-flags", mutate(data, func(b []byte) {
			binary.LittleEndian.PutUint32(b[12:], 1<<7)
			fixHeaderCRC(b)
		}), "unknown flag"},
		{"reserved-nonzero", mutate(data, func(b []byte) {
			b[40] = 1
			fixHeaderCRC(b)
		}), "reserved"},
		{"zero-sections", mutate(data, func(b []byte) {
			binary.LittleEndian.PutUint32(b[16:], 0)
			fixHeaderCRC(b)
		}), "section count"},
		// The classic lying header: claims 2^22 sections in a 10 KiB file.
		// Must fail on the table bound, not allocate 128 MiB of entries.
		{"lying-section-count", mutate(data, func(b []byte) {
			binary.LittleEndian.PutUint32(b[16:], maxSections)
			fixHeaderCRC(b)
		}), "exceeds file size"},
		{"lying-level-count", mutate(data, func(b []byte) {
			binary.LittleEndian.PutUint32(b[20:], maxLevels+1)
			fixHeaderCRC(b)
		}), "level count"},
		{"wrong-file-size", mutate(data, func(b []byte) {
			binary.LittleEndian.PutUint64(b[24:], 1<<40)
			fixHeaderCRC(b)
		}), "claims"},
		{"truncated-payload", data[:len(data)-64], "claims"},
		{"misaligned-offset", mutate(data, func(b []byte) {
			off := binary.LittleEndian.Uint64(b[secOff(0)+8:])
			binary.LittleEndian.PutUint64(b[secOff(0)+8:], off+8)
		}), "aligned"},
		// Section 1 moved onto section 0's range.
		{"overlapping-sections", mutate(data, func(b []byte) {
			off0 := binary.LittleEndian.Uint64(b[secOff(0)+8:])
			binary.LittleEndian.PutUint64(b[secOff(1)+8:], off0)
		}), "overlaps"},
		// A section length pointing past EOF: bounded before allocation.
		{"lying-section-length", mutate(data, func(b []byte) {
			binary.LittleEndian.PutUint64(b[secOff(0)+16:], 1<<42)
			binary.LittleEndian.PutUint32(b[secOff(0)+24:], 1<<29)
		}), "exceeds file size"},
		{"count-length-mismatch", mutate(data, func(b []byte) {
			c := binary.LittleEndian.Uint32(b[secOff(0)+24:])
			binary.LittleEndian.PutUint32(b[secOff(0)+24:], c+1)
		}), "elements"},
		{"corrupt-payload", mutate(data, func(b []byte) {
			off := binary.LittleEndian.Uint64(b[secOff(0)+8:])
			b[off] ^= 0xff
		}), "checksum mismatch"},
		{"unknown-kind", mutate(data, func(b []byte) {
			binary.LittleEndian.PutUint32(b[secOff(0):], uint32('Z')|uint32('Z')<<8|uint32('Z')<<16|uint32('Z')<<24)
		}), "unknown section kind"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := Load(tc.in, LoadOptions{})
			if err == nil {
				t.Fatal("hostile input accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestLoadRejectsStructuralLies covers payloads that pass every checksum
// but describe an impossible hierarchy. Each is built by re-saving a
// legitimately mutated in-memory hierarchy... which Save refuses, so these
// construct raw containers by patching payload bytes and re-checksumming.
func TestLoadRejectsStructuralLies(t *testing.T) {
	h := buildHier(t, gen.Grid2D(20, 20), 1)
	data := saveBytes(t, h, SaveOptions{})

	// Patch one payload byte range and fix that section's CRC.
	patch := func(sec int, fn func(payload []byte)) []byte {
		out := append([]byte(nil), data...)
		e := HeaderSize + sec*SectionEntrySize
		off := binary.LittleEndian.Uint64(out[e+8:])
		length := binary.LittleEndian.Uint64(out[e+16:])
		fn(out[off : off+length])
		binary.LittleEndian.PutUint32(out[e+28:], Checksum(out[off:off+length]))
		return out
	}
	// Section order: XADJ0 ADJC0 EWGT0 [VWGT0?] XADJ1 ... CMAP0 ... LVST LVSB.
	cases := []struct {
		name string
		in   []byte
		want string
	}{
		{"xadj-decreasing", patch(0, func(p []byte) {
			binary.LittleEndian.PutUint64(p[8:], 1<<33)
		}), "decreasing"},
		{"xadj-nonzero-start", patch(0, func(p []byte) {
			binary.LittleEndian.PutUint64(p[0:], 1)
		}), "Xadj[0]"},
		{"adj-out-of-range", patch(1, func(p []byte) {
			binary.LittleEndian.PutUint32(p[0:], 1<<20)
		}), "out of range"},
		{"negative-weight", patch(2, func(p []byte) {
			binary.LittleEndian.PutUint64(p[0:], ^uint64(0))
		}), "edge weight"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := Load(tc.in, LoadOptions{})
			if err == nil {
				t.Fatal("structural lie accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}

	// Map targeting a coarse id past NC: find the CMAP section index.
	nsec := int(binary.LittleEndian.Uint32(data[16:]))
	cmapIdx := -1
	for i := 0; i < nsec; i++ {
		if binary.LittleEndian.Uint32(data[HeaderSize+i*SectionEntrySize:]) == KindCmap {
			cmapIdx = i
			break
		}
	}
	if cmapIdx < 0 {
		t.Fatal("no CMAP section in test container")
	}
	bad := patch(cmapIdx, func(p []byte) {
		binary.LittleEndian.PutUint32(p[0:], uint32(h.Graphs[1].NumV))
	})
	if _, _, err := Load(bad, LoadOptions{}); err == nil || !strings.Contains(err.Error(), "out of") {
		t.Errorf("out-of-range map target: %v", err)
	}
}

// TestLoadRejectsBadWeights hand-builds containers (Save writes weights
// unchecked) whose weights break the structural rule: vertex weights of
// -1000, all zeros, or two of 2^62 on an 80-vertex unit path, and edge
// weights whose directed total overflows int64. Load without FullValidate
// must refuse each one.
func TestLoadRejectsBadWeights(t *testing.T) {
	unitPath := func() *graph.Graph {
		edges := make([]graph.Edge, 79)
		for i := range edges {
			edges[i] = graph.Edge{U: int32(i), V: int32(i + 1), W: 1}
		}
		return graph.MustFromEdges(80, edges)
	}
	ones := func() []int64 {
		vw := make([]int64, 80)
		for i := range vw {
			vw[i] = 1
		}
		return vw
	}
	neg, huge := ones(), ones()
	neg[40] = -1000
	huge[10], huge[70] = 1<<62, 1<<62
	heavy := unitPath()
	for i := range heavy.Wgt[:4] {
		heavy.Wgt[i] = 1 << 62 // edges {0,1} and {1,2}, both directions: 2^64
	}
	cases := []struct {
		name string
		vw   []int64
		g    *graph.Graph
		want string
	}{
		{"negative-vertex", neg, unitPath(), "non-positive vertex weight -1000"},
		{"zero-vertex", make([]int64, 80), unitPath(), "non-positive vertex weight 0"},
		{"vertex-total", huge, unitPath(), "vertex weight total overflows int64"},
		{"edge-total", nil, heavy, "edge weight total overflows int64"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.g.VWgt = tc.vw
			var buf bytes.Buffer
			if err := SaveGraph(&buf, tc.g, SaveOptions{}); err != nil {
				t.Fatal(err)
			}
			_, _, err := LoadGraph(buf.Bytes(), LoadOptions{})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("LoadGraph error %v, want one containing %q", err, tc.want)
			}
		})
	}
}

// FuzzHierFmtLoad feeds the reader arbitrary bytes. The invariants: no
// panic, no unbounded allocation (enforced by the bounds discipline — every
// make is capped by a section length already checked against len(in)), and
// anything that parses must round-trip byte-identically through Save.
func FuzzHierFmtLoad(f *testing.F) {
	add := func(g func() []byte) { f.Add(g()) }
	add(func() []byte { return saveBytes(f, buildHier(f, gen.Grid2D(25, 25), 1), SaveOptions{}) })
	add(func() []byte {
		return saveBytes(f, buildHier(f, gen.RMAT(8, 8, 3), 2), SaveOptions{CompressAdj: true, Meta: []byte("x")})
	})
	seed := saveBytes(f, buildHier(f, gen.BA(300, 3, 5), 1), SaveOptions{CompressAdj: true})
	f.Add(seed)
	f.Add(seed[:len(seed)/2]) // truncated mid-section
	f.Add(seed[:HeaderSize])  // header only
	corrupt := append([]byte(nil), seed...)
	corrupt[HeaderSize+8] ^= 0xff // damage a table offset
	f.Add(corrupt)
	f.Add([]byte("MLCGHF01 but not really a container"))

	f.Fuzz(func(t *testing.T, in []byte) {
		h, meta, err := Load(in, LoadOptions{})
		if err != nil {
			return
		}
		// Parsed: the hierarchy must be internally consistent enough to
		// re-save, and the save must reproduce the input bytes exactly
		// (the reader accepts only canonical containers).
		varint := binary.LittleEndian.Uint32(in[12:])&FlagDeltaVarint != 0
		var buf bytes.Buffer
		if err := Save(&buf, h, SaveOptions{CompressAdj: varint, Meta: meta}); err != nil {
			t.Fatalf("accepted container failed to re-save: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), in) {
			t.Fatalf("save(load(x)) != x: %d vs %d bytes", buf.Len(), len(in))
		}
	})
}
