package hierfmt

import (
	"encoding/binary"
	"unsafe"
)

// Raw-array views. The container stores int32/int64 arrays as their
// little-endian memory image, so on a little-endian host a section can be
// written straight from (and, for aligned data, copied straight into) a
// slice header with no per-element work. Big-endian or misaligned cases
// fall back to an explicit per-element loop; both paths produce identical
// bytes, the fast path just skips the copy.

// hostLittleEndian is probed once: the unsafe casts below are only valid
// when the in-memory representation already matches the file format.
var hostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// i64Bytes returns the little-endian byte image of s. On little-endian
// hosts this aliases s (callers must not retain it past s's lifetime).
func i64Bytes(s []int64) []byte {
	if len(s) == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*8)
	}
	out := make([]byte, len(s)*8)
	for i, v := range s {
		binary.LittleEndian.PutUint64(out[i*8:], uint64(v))
	}
	return out
}

// i32Bytes is i64Bytes for int32 payloads.
func i32Bytes(s []int32) []byte {
	if len(s) == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*4)
	}
	out := make([]byte, len(s)*4)
	for i, v := range s {
		binary.LittleEndian.PutUint32(out[i*4:], uint32(v))
	}
	return out
}

// bytesToI64 decodes count little-endian int64 values from b into a fresh
// slice (always copies: loaded hierarchies own their storage).
func bytesToI64(b []byte, count int) []int64 {
	out := make([]int64, count)
	if hostLittleEndian && count > 0 && uintptr(unsafe.Pointer(&b[0]))%8 == 0 {
		copy(out, unsafe.Slice((*int64)(unsafe.Pointer(&b[0])), count))
		return out
	}
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out
}

// bytesToI32 is bytesToI64 for int32 payloads.
func bytesToI32(b []byte, count int) []int32 {
	out := make([]int32, count)
	if hostLittleEndian && count > 0 && uintptr(unsafe.Pointer(&b[0]))%4 == 0 {
		copy(out, unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), count))
		return out
	}
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out
}
