// Package hierfmt implements the module's versioned, checksummed binary
// container for graphs and full coarsening
// hierarchies — the on-disk artifact that lets mlcg-serve restart without
// rebuilding and batch pipelines skip re-parsing text inputs. The
// normative byte-level specification lives in docs/FORMAT.md; this package
// is its reference implementation.
//
// Layout (all integers little-endian):
//
//	header (64 B) ‖ section table (32 B × nsections) ‖ payload sections
//
// Every payload section starts at a 64-byte-aligned file offset (one cache
// line, and a safe alignment for any int64 view of the payload), is
// individually CRC-32C checksummed, and is bounded by the file size before
// a single byte is allocated — the chunked-length discipline the graph
// binary reader adopted for untrusted inputs, extended here to a whole
// container: a lying section table costs the attacker their own wire
// bytes, never a giant make().
//
// Save is deterministic: the same hierarchy (and the same options)
// produces the same bytes, so content hashes of saved files are stable and
// save→load→save round-trips are byte-identical. That property is tested
// across worker counts — the coarsening pipeline already guarantees
// byte-identical hierarchies at any parallelism, and the container
// preserves it on disk.
package hierfmt

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Magic is the 8-byte file signature, "MLCGHF01" in ASCII. The trailing
// digits are cosmetic (humans running `head -c8`); the real version lives
// in the header's version field.
const Magic = uint64(0x3130464847434C4D) // "MLCGHF01" little-endian

// Version is the current container version. Readers reject files with a
// different version rather than guessing at field meanings; see
// docs/FORMAT.md for the compatibility policy.
const Version = uint32(1)

// FileExt is the conventional filename extension for container files.
const FileExt = ".mlcg"

// Header flags.
const (
	// FlagDeltaVarint marks ADJC sections as zigzag delta-varint streams
	// instead of raw int32 arrays (SaveOptions.CompressAdj).
	FlagDeltaVarint = uint32(1 << 0)
	// FlagStalled records Hierarchy.Stalled: coarsening stopped because a
	// mapping produced no reduction, not because the cutoff was reached.
	FlagStalled = uint32(1 << 1)
)

// flagsKnown masks every flag this version defines; readers reject files
// with unknown bits set (they would change payload meaning).
const flagsKnown = FlagDeltaVarint | FlagStalled

// Section kinds (FourCC codes, stored as little-endian uint32 so the
// ASCII reads forward in a hexdump).
const (
	KindXadj = uint32('X') | uint32('A')<<8 | uint32('D')<<16 | uint32('J')<<24 // CSR offsets, int64, count = n+1
	KindAdjc = uint32('A') | uint32('D')<<8 | uint32('J')<<16 | uint32('C')<<24 // adjacency, int32 (or varint), count = nnz
	KindEwgt = uint32('E') | uint32('W')<<8 | uint32('G')<<16 | uint32('T')<<24 // edge weights, int64, count = nnz
	KindVwgt = uint32('V') | uint32('W')<<8 | uint32('G')<<16 | uint32('T')<<24 // vertex weights, int64, count = n (optional)
	KindCmap = uint32('C') | uint32('M')<<8 | uint32('A')<<16 | uint32('P')<<24 // coarse map, int32, count = n of fine level
	KindLvst = uint32('L') | uint32('V')<<8 | uint32('S')<<16 | uint32('T')<<24 // LevelStats records, 40 B each
	KindLvsb = uint32('L') | uint32('V')<<8 | uint32('S')<<16 | uint32('B')<<24 // per-level builder/reason strings, JSON
	KindMeta = uint32('M') | uint32('E')<<8 | uint32('T')<<16 | uint32('A')<<24 // caller-provided opaque bytes (optional)
)

// Fixed sizes of the on-disk structures.
const (
	HeaderSize       = 64
	SectionEntrySize = 32
	// LevelStatSize is the size of one LVST record: n i32, nc i32, m i64,
	// map_ns i64, build_ns i64, passes i32, reserved u32.
	LevelStatSize = 40
	// SectionAlign is the payload alignment. 64 bytes keeps each section on
	// its own cache line and guarantees 8-byte alignment for int64 views.
	SectionAlign = 64
)

// Hard caps on header-claimed structure counts, mirroring the graph
// parsers' MaxParseVertices discipline: far above real workloads, small
// enough that a crafted header cannot demand absurd table allocations.
const (
	maxSections = 1 << 22
	maxLevels   = 1 << 20
)

// crcTable is the Castagnoli polynomial table (hardware-accelerated on
// amd64/arm64). All container checksums are CRC-32C.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Checksum computes the container's CRC-32C over b.
func Checksum(b []byte) uint32 { return crc32.Checksum(b, crcTable) }

// align64 rounds up to the next SectionAlign boundary.
func align64(x int64) int64 {
	return (x + SectionAlign - 1) &^ (SectionAlign - 1)
}

// header is the parsed 64-byte file header.
type header struct {
	version   uint32
	flags     uint32
	nsections uint32
	nlevels   uint32
	fileSize  uint64
}

// encodeHeader writes the header into a 64-byte buffer, including the
// trailing CRC over bytes [0,60).
func encodeHeader(h header) [HeaderSize]byte {
	var b [HeaderSize]byte
	binary.LittleEndian.PutUint64(b[0:], Magic)
	binary.LittleEndian.PutUint32(b[8:], h.version)
	binary.LittleEndian.PutUint32(b[12:], h.flags)
	binary.LittleEndian.PutUint32(b[16:], h.nsections)
	binary.LittleEndian.PutUint32(b[20:], h.nlevels)
	binary.LittleEndian.PutUint64(b[24:], h.fileSize)
	// Bytes [32,56) and [56,60) are reserved (zero) in version 1.
	binary.LittleEndian.PutUint32(b[60:], Checksum(b[:60]))
	return b
}

// decodeHeader parses and verifies the fixed header. It checks only
// self-contained properties; size cross-checks against the actual data
// happen in Load where the real length is known.
func decodeHeader(b []byte) (header, error) {
	var h header
	if len(b) < HeaderSize {
		return h, fmt.Errorf("hierfmt: file too short for header: %d bytes", len(b))
	}
	if got := binary.LittleEndian.Uint64(b[0:]); got != Magic {
		return h, fmt.Errorf("hierfmt: bad magic %#x", got)
	}
	if got := Checksum(b[:60]); got != binary.LittleEndian.Uint32(b[60:]) {
		return h, fmt.Errorf("hierfmt: header checksum mismatch (file %#x, computed %#x)",
			binary.LittleEndian.Uint32(b[60:]), got)
	}
	h.version = binary.LittleEndian.Uint32(b[8:])
	if h.version != Version {
		return h, fmt.Errorf("hierfmt: unsupported version %d (reader supports %d)", h.version, Version)
	}
	h.flags = binary.LittleEndian.Uint32(b[12:])
	if h.flags&^flagsKnown != 0 {
		return h, fmt.Errorf("hierfmt: unknown flag bits %#x", h.flags&^flagsKnown)
	}
	h.nsections = binary.LittleEndian.Uint32(b[16:])
	h.nlevels = binary.LittleEndian.Uint32(b[20:])
	h.fileSize = binary.LittleEndian.Uint64(b[24:])
	for _, off := range []int{32, 40, 48} {
		if binary.LittleEndian.Uint64(b[off:]) != 0 {
			return h, fmt.Errorf("hierfmt: reserved header bytes at %d are non-zero", off)
		}
	}
	if binary.LittleEndian.Uint32(b[56:]) != 0 {
		return h, fmt.Errorf("hierfmt: reserved header bytes at 56 are non-zero")
	}
	if h.nsections == 0 || h.nsections > maxSections {
		return h, fmt.Errorf("hierfmt: implausible section count %d", h.nsections)
	}
	if h.nlevels == 0 || h.nlevels > maxLevels {
		return h, fmt.Errorf("hierfmt: implausible level count %d", h.nlevels)
	}
	return h, nil
}

// section is one parsed table entry.
type section struct {
	kind   uint32
	level  uint32
	offset uint64
	length uint64
	count  uint32
	crc    uint32
}

func encodeSection(b []byte, s section) {
	binary.LittleEndian.PutUint32(b[0:], s.kind)
	binary.LittleEndian.PutUint32(b[4:], s.level)
	binary.LittleEndian.PutUint64(b[8:], s.offset)
	binary.LittleEndian.PutUint64(b[16:], s.length)
	binary.LittleEndian.PutUint32(b[24:], s.count)
	binary.LittleEndian.PutUint32(b[28:], s.crc)
}

func decodeSection(b []byte) section {
	return section{
		kind:   binary.LittleEndian.Uint32(b[0:]),
		level:  binary.LittleEndian.Uint32(b[4:]),
		offset: binary.LittleEndian.Uint64(b[8:]),
		length: binary.LittleEndian.Uint64(b[16:]),
		count:  binary.LittleEndian.Uint32(b[24:]),
		crc:    binary.LittleEndian.Uint32(b[28:]),
	}
}

// kindName renders a FourCC for error messages.
func kindName(k uint32) string {
	b := []byte{byte(k), byte(k >> 8), byte(k >> 16), byte(k >> 24)}
	for _, c := range b {
		if c < 0x20 || c > 0x7e {
			return fmt.Sprintf("%#x", k)
		}
	}
	return string(b)
}
