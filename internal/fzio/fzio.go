// Package fzio is the field codec of the snapshot files — the frozen shard
// format (core) and the serving metadata (pipeline): sticky-error
// little-endian writers and readers, and the bounds every count and string
// in those files obeys. A str is a u32 length followed by its bytes.
package fzio

import (
	"fmt"
	"io"
	"slices"
)

const (
	// MaxElems bounds every count field; writers enforce it so every file
	// they produce is loadable, and readers reject anything above it before
	// allocating.
	MaxElems = 1 << 27
	// MaxStr bounds a single string length, both directions.
	MaxStr = 1 << 20
	// preallocElems caps how much capacity a claimed count reserves before
	// the stream has actually delivered that much data: slices grow with
	// genuine bytes, so a tiny corrupt file cannot trigger a huge
	// allocation (the checksum is only verifiable after the body).
	preallocElems = 1 << 16
)

// Prealloc returns the initial capacity to reserve for a claimed element
// count, trusting the stream only up to a fixed cap.
func Prealloc(count int) int { return min(count, preallocElems) }

func PutU32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

func GetU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// Writer is a sticky-error little-endian writer: once a write fails, Err
// holds the failure and every later call is a no-op.
type Writer struct {
	W   io.Writer
	Err error
	b   [8]byte
	str []byte // Str's copy of its string, reused across calls
}

func (fw *Writer) Bytes(p []byte) {
	if fw.Err != nil {
		return
	}
	_, fw.Err = fw.W.Write(p)
}

func (fw *Writer) U8(v uint8) {
	fw.b[0] = v
	fw.Bytes(fw.b[:1])
}

func (fw *Writer) U16(v uint16) {
	fw.b[0], fw.b[1] = byte(v), byte(v>>8)
	fw.Bytes(fw.b[:2])
}

func (fw *Writer) U32(v uint32) {
	PutU32(fw.b[:4], v)
	fw.Bytes(fw.b[:4])
}

func (fw *Writer) U64(v uint64) {
	PutU32(fw.b[:4], uint32(v))
	PutU32(fw.b[4:], uint32(v>>32))
	fw.Bytes(fw.b[:8])
}

func (fw *Writer) Str(s string) {
	fw.U32(uint32(len(s)))
	fw.str = append(fw.str[:0], s...)
	fw.Bytes(fw.str)
}

// Reader is a sticky-error little-endian reader: once a read fails, or a
// caller records a decoded value as invalid, Err holds the failure and
// every later read returns zeros. Every count it returns is pre-bounded so
// callers can allocate without trusting the stream.
type Reader struct {
	R   io.Reader
	Err error
	b   [8]byte
}

// Bytes fills p; a short stream is io.ErrUnexpectedEOF.
func (fr *Reader) Bytes(p []byte) {
	if fr.Err != nil {
		return
	}
	if _, err := io.ReadFull(fr.R, p); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		fr.Err = err
	}
}

func (fr *Reader) U8() uint8 {
	fr.Bytes(fr.b[:1])
	return fr.b[0]
}

func (fr *Reader) U16() uint16 {
	fr.Bytes(fr.b[:2])
	return uint16(fr.b[0]) | uint16(fr.b[1])<<8
}

func (fr *Reader) U32() uint32 {
	fr.Bytes(fr.b[:4])
	return GetU32(fr.b[:4])
}

func (fr *Reader) U64() uint64 {
	fr.Bytes(fr.b[:8])
	return uint64(GetU32(fr.b[:4])) | uint64(GetU32(fr.b[4:]))<<32
}

// Count reads a u32 element count and rejects anything above MaxElems.
func (fr *Reader) Count(what string) int {
	v := fr.U32()
	if fr.Err == nil && v > MaxElems {
		fr.Err = fmt.Errorf("%s count %d exceeds limit", what, v)
	}
	return int(v)
}

func (fr *Reader) Str() string { return string(fr.AppendStr(nil, MaxStr)) }

// AppendStr reads a str and appends its bytes to dst, so many strings can
// share one buffer. It rejects a string that would grow dst past limit
// bytes before allocating any room for it.
func (fr *Reader) AppendStr(dst []byte, limit uint64) []byte {
	n := fr.U32()
	if fr.Err == nil && n > MaxStr {
		fr.Err = fmt.Errorf("string length %d exceeds limit", n)
	}
	if fr.Err == nil && uint64(len(dst))+uint64(n) > limit {
		fr.Err = fmt.Errorf("strings exceed %d bytes", limit)
	}
	if fr.Err != nil {
		return dst
	}
	dst = slices.Grow(dst, int(n))
	fr.Bytes(dst[len(dst) : len(dst)+int(n)])
	return dst[:len(dst)+int(n)]
}
