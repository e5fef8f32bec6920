package core

import (
	"encoding/binary"
	"slices"
)

// AppendIDList appends ids in packed form — a little-endian uint32 count,
// then each ID as a uint32 — the form the engines' query-result caches
// store answers in.
func AppendIDList(dst []byte, ids []NodeID) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(ids)))
	for _, id := range ids {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(id))
	}
	return dst
}

// ReadIDList decodes the AppendIDList list at the front of src into dst's
// backing array, growing it once to the list's length when it is too
// small, and returns the list and the rest of src.
func ReadIDList(dst []NodeID, src []byte) ([]NodeID, []byte) {
	n := int(binary.LittleEndian.Uint32(src))
	src = src[4:]
	dst = slices.Grow(dst[:0], n)[:n]
	for i := range dst {
		dst[i] = NodeID(binary.LittleEndian.Uint32(src[4*i:]))
	}
	return dst, src[4*n:]
}
