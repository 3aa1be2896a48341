// Package cemfmt implements NekCEM's checkpoint file format: a master
// header followed by data blocks sorted by field, as described in the
// paper's Section III-B (a vtk-legacy-style self-describing layout).
//
// File layout:
//
//	[magic "NEKCEMCK"] [version u32] [header length u64]
//	[header payload: app name, step, sim time, field names,
//	 points-per-chunk table]
//	for each field, in order:
//	    [block header: field name (16 bytes), block size u64]
//	    [chunk 0 data][chunk 1 data]...[chunk n-1 data]
//
// A "chunk" is one rank's contribution. The header's chunk table makes every
// (field, chunk) offset computable, which is what lets writers place data
// with independent WriteAt calls and lets restart readers fetch exactly
// their slice.
package cemfmt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Magic identifies a NekCEM checkpoint file.
const Magic = "NEKCEMCK"

// Version is the current format version.
const Version = 1

const (
	preambleSize    = 8 + 4 + 8 // magic + version + header length
	blockHeaderSize = 16 + 8    // field name + block size
	fieldNameSize   = 16
)

// maxHeaderLen caps the header payload length a preamble may declare. It
// sits well above the largest real header — 2^16 fields plus one 8-byte
// chunk entry per rank, about 10 MiB even at 2^20 ranks — so a corrupt
// length fails here instead of sizing a read.
const maxHeaderLen = 1 << 26

// ErrFormat reports a malformed checkpoint file.
var ErrFormat = errors.New("cemfmt: malformed checkpoint")

// Header is the master header of a checkpoint file.
//
// Offset queries (HeaderSize, FieldOffset, ChunkOffset, TotalSize) memoize
// the encoded size and the chunk prefix sums on first use (or at Freeze;
// Unmarshal returns frozen headers); do not mutate a Header after querying
// offsets.
type Header struct {
	App     string
	Step    int64
	SimTime float64
	Fields  []string // field names, in file order
	// ChunkBytes[c] is the byte size of chunk c's data per field. Chunks
	// appear in the same order within every field block.
	ChunkBytes []int64

	hdrSize int64   // memoized encoded size (preamble + payload)
	prefix  []int64 // memoized chunk-offset prefix sums; prefix[c] = sum of ChunkBytes[:c]
}

// ensure populates the memoized size and prefix table.
func (h *Header) ensure() {
	if h.hdrSize == 0 {
		h.hdrSize = int64(preambleSize + len(h.payload()))
	}
	if h.prefix == nil {
		h.prefix = make([]int64, len(h.ChunkBytes)+1)
		for i, c := range h.ChunkBytes {
			h.prefix[i+1] = h.prefix[i] + c
		}
	}
}

// Freeze memoizes the offset tables now and returns h. Queries on a frozen
// header only read it, so one header may be shared by ranks that query it
// concurrently (the lanes of a partitioned simulation).
func (h *Header) Freeze() *Header {
	h.ensure()
	return h
}

// NumChunks returns the number of per-rank chunks in the file.
func (h *Header) NumChunks() int { return len(h.ChunkBytes) }

// FieldBytes returns the data payload size of one field block (all chunks,
// excluding the block header).
func (h *Header) FieldBytes() int64 {
	h.ensure()
	return h.prefix[len(h.prefix)-1]
}

// TotalSize returns the size in bytes of the complete file.
func (h *Header) TotalSize() int64 {
	return h.HeaderSize() + int64(len(h.Fields))*(blockHeaderSize+h.FieldBytes())
}

// HeaderSize returns the encoded size of the preamble plus header payload.
func (h *Header) HeaderSize() int64 {
	h.ensure()
	return h.hdrSize
}

// FieldOffset returns the file offset of field block f (its block header).
func (h *Header) FieldOffset(f int) int64 {
	if f < 0 || f >= len(h.Fields) {
		panic(fmt.Sprintf("cemfmt: field %d of %d", f, len(h.Fields)))
	}
	return h.HeaderSize() + int64(f)*(blockHeaderSize+h.FieldBytes())
}

// ChunkOffset returns the file offset of chunk c's data within field f.
func (h *Header) ChunkOffset(f, c int) int64 {
	if c < 0 || c >= len(h.ChunkBytes) {
		panic(fmt.Sprintf("cemfmt: chunk %d of %d", c, len(h.ChunkBytes)))
	}
	h.ensure()
	return h.FieldOffset(f) + blockHeaderSize + h.prefix[c]
}

func (h *Header) payload() []byte {
	var b []byte
	b = appendString(b, h.App)
	b = binary.LittleEndian.AppendUint64(b, uint64(h.Step))
	b = binary.LittleEndian.AppendUint64(b, binaryFloat(h.SimTime))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(h.Fields)))
	for _, f := range h.Fields {
		b = appendString(b, f)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(h.ChunkBytes)))
	for _, c := range h.ChunkBytes {
		b = binary.LittleEndian.AppendUint64(b, uint64(c))
	}
	return b
}

// Marshal encodes the preamble and header payload.
func (h *Header) Marshal() []byte {
	payload := h.payload()
	out := make([]byte, 0, preambleSize+len(payload))
	out = append(out, Magic...)
	out = binary.LittleEndian.AppendUint32(out, Version)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
	return append(out, payload...)
}

// PreambleSize is the number of bytes a reader must fetch to learn the
// header's full length (see HeaderLenFromPreamble).
const PreambleSize = preambleSize

// HeaderLenFromPreamble validates a preamble and returns the byte count of
// the remaining header payload.
func HeaderLenFromPreamble(b []byte) (int64, error) {
	if len(b) < preambleSize {
		return 0, fmt.Errorf("%w: preamble truncated (%d bytes)", ErrFormat, len(b))
	}
	if string(b[:8]) != Magic {
		return 0, fmt.Errorf("%w: bad magic %q", ErrFormat, b[:8])
	}
	if v := binary.LittleEndian.Uint32(b[8:]); v != Version {
		return 0, fmt.Errorf("%w: unsupported version %d", ErrFormat, v)
	}
	n := binary.LittleEndian.Uint64(b[12:])
	if n > maxHeaderLen {
		return 0, fmt.Errorf("%w: header length %d exceeds %d", ErrFormat, n, maxHeaderLen)
	}
	return int64(n), nil
}

// Unmarshal decodes a header from the preamble plus payload bytes.
func Unmarshal(b []byte) (*Header, error) {
	n, err := HeaderLenFromPreamble(b)
	if err != nil {
		return nil, err
	}
	if int64(len(b)) < int64(preambleSize)+n {
		return nil, fmt.Errorf("%w: header truncated", ErrFormat)
	}
	p := b[preambleSize:]
	h := &Header{}
	var ok bool
	if h.App, p, ok = readString(p); !ok {
		return nil, fmt.Errorf("%w: app name", ErrFormat)
	}
	if len(p) < 20 {
		return nil, fmt.Errorf("%w: fixed fields", ErrFormat)
	}
	h.Step = int64(binary.LittleEndian.Uint64(p))
	h.SimTime = floatBinary(binary.LittleEndian.Uint64(p[8:]))
	nf := int(binary.LittleEndian.Uint32(p[16:]))
	p = p[20:]
	if nf < 0 || nf > 1<<16 {
		return nil, fmt.Errorf("%w: field count %d", ErrFormat, nf)
	}
	h.Fields = make([]string, nf)
	for i := range h.Fields {
		if h.Fields[i], p, ok = readString(p); !ok {
			return nil, fmt.Errorf("%w: field name %d", ErrFormat, i)
		}
	}
	if len(p) < 4 {
		return nil, fmt.Errorf("%w: chunk count", ErrFormat)
	}
	nc := int(binary.LittleEndian.Uint32(p))
	p = p[4:]
	if nc < 0 || len(p) < 8*nc {
		return nil, fmt.Errorf("%w: chunk table (%d chunks, %d bytes)", ErrFormat, nc, len(p))
	}
	h.ChunkBytes = make([]int64, nc)
	var sum int64
	for i := range h.ChunkBytes {
		c := int64(binary.LittleEndian.Uint64(p[8*i:]))
		if c < 0 {
			return nil, fmt.Errorf("%w: negative chunk size", ErrFormat)
		}
		if c > math.MaxInt64-sum {
			return nil, fmt.Errorf("%w: chunk sizes overflow at chunk %d", ErrFormat, i)
		}
		h.ChunkBytes[i] = c
		sum += c
	}
	h.Freeze()
	// Every offset lies within the file, so the file's total size must
	// fit an int64 too, or FieldOffset and ChunkOffset wrap negative.
	if nf > 0 && sum > (math.MaxInt64-h.HeaderSize())/int64(nf)-blockHeaderSize {
		return nil, fmt.Errorf("%w: %d fields of %d bytes overflow the file size", ErrFormat, nf, sum)
	}
	return h, nil
}

// BlockHeader encodes a field block header.
func BlockHeader(field string, size int64) []byte {
	out := make([]byte, blockHeaderSize)
	copy(out, field) // truncated/zero-padded to 16 bytes
	binary.LittleEndian.PutUint64(out[fieldNameSize:], uint64(size))
	return out
}

// BlockHeaderSize is the encoded size of a field block header.
const BlockHeaderSize = blockHeaderSize

// ParseBlockHeader decodes a field block header.
func ParseBlockHeader(b []byte) (field string, size int64, err error) {
	if len(b) < blockHeaderSize {
		return "", 0, fmt.Errorf("%w: block header truncated", ErrFormat)
	}
	name := b[:fieldNameSize]
	end := 0
	for end < len(name) && name[end] != 0 {
		end++
	}
	return string(name[:end]), int64(binary.LittleEndian.Uint64(b[fieldNameSize:])), nil
}

func appendString(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

func readString(p []byte) (string, []byte, bool) {
	if len(p) < 4 {
		return "", p, false
	}
	n := int(binary.LittleEndian.Uint32(p))
	p = p[4:]
	if n < 0 || len(p) < n {
		return "", p, false
	}
	return string(p[:n]), p[n:], true
}

func binaryFloat(f float64) uint64 { return math.Float64bits(f) }
func floatBinary(u uint64) float64 { return math.Float64frombits(u) }

// ReaderAt fetches a byte range of a stored checkpoint for validation.
// It returns nil bytes (no error) when the range exists but its content is
// not materialized (synthetic paper-scale payloads).
type ReaderAt func(off, n int64) ([]byte, error)

// Validate walks a checkpoint file: it parses the master header, checks the
// advertised total size against the actual file size, and verifies each
// field's block header (name and payload size) against the master header.
// Block headers that were written as part of a synthetic payload cannot be
// inspected; Validate skips them and reports how many it checked.
func Validate(read ReaderAt, fileSize int64) (hdr *Header, blocksChecked int, err error) {
	pre, err := read(0, PreambleSize)
	if err != nil {
		return nil, 0, err
	}
	if pre == nil {
		return nil, 0, fmt.Errorf("%w: header not materialized", ErrFormat)
	}
	n, err := HeaderLenFromPreamble(pre)
	if err != nil {
		return nil, 0, err
	}
	full, err := read(0, PreambleSize+n)
	if err != nil {
		return nil, 0, err
	}
	hdr, err = Unmarshal(full)
	if err != nil {
		return nil, 0, err
	}
	if want := hdr.TotalSize(); fileSize != want {
		return hdr, 0, fmt.Errorf("%w: file is %d bytes, header promises %d", ErrFormat, fileSize, want)
	}
	for fi, name := range hdr.Fields {
		raw, err := read(hdr.FieldOffset(fi), BlockHeaderSize)
		if err != nil {
			return hdr, blocksChecked, err
		}
		if raw == nil {
			continue // synthetic region; structure not inspectable
		}
		gotName, gotSize, err := ParseBlockHeader(raw)
		if err != nil {
			return hdr, blocksChecked, err
		}
		wantName := name
		if len(wantName) > fieldNameSize {
			wantName = wantName[:fieldNameSize]
		}
		if gotName != wantName {
			return hdr, blocksChecked, fmt.Errorf("%w: field %d block header names %q, master header %q",
				ErrFormat, fi, gotName, wantName)
		}
		if gotSize != hdr.FieldBytes() {
			return hdr, blocksChecked, fmt.Errorf("%w: field %d block claims %d bytes, master header %d",
				ErrFormat, fi, gotSize, hdr.FieldBytes())
		}
		blocksChecked++
	}
	return hdr, blocksChecked, nil
}
