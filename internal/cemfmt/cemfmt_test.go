package cemfmt

import (
	"encoding/binary"
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func sampleHeader() *Header {
	return &Header{
		App:        "NekCEM",
		Step:       1200,
		SimTime:    3.75,
		Fields:     []string{"Ex", "Ey", "Ez", "Hx", "Hy", "Hz"},
		ChunkBytes: []int64{4096, 4096, 2048, 8192},
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	h := sampleHeader()
	b := h.Marshal()
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.App != h.App || got.Step != h.Step || got.SimTime != h.SimTime {
		t.Fatalf("scalar fields differ: %+v", got)
	}
	if len(got.Fields) != 6 || got.Fields[5] != "Hz" {
		t.Fatalf("fields %v", got.Fields)
	}
	if len(got.ChunkBytes) != 4 || got.ChunkBytes[3] != 8192 {
		t.Fatalf("chunks %v", got.ChunkBytes)
	}
}

func TestHeaderSizeMatchesMarshal(t *testing.T) {
	h := sampleHeader()
	if int64(len(h.Marshal())) != h.HeaderSize() {
		t.Fatalf("HeaderSize %d, marshal %d", h.HeaderSize(), len(h.Marshal()))
	}
}

func TestOffsets(t *testing.T) {
	h := sampleHeader()
	fieldBytes := int64(4096 + 4096 + 2048 + 8192)
	if h.FieldBytes() != fieldBytes {
		t.Fatalf("FieldBytes %d", h.FieldBytes())
	}
	if h.FieldOffset(0) != h.HeaderSize() {
		t.Fatal("first field not after header")
	}
	if h.FieldOffset(1)-h.FieldOffset(0) != BlockHeaderSize+fieldBytes {
		t.Fatal("field stride wrong")
	}
	// Chunk offsets within field 2.
	base := h.FieldOffset(2) + BlockHeaderSize
	if h.ChunkOffset(2, 0) != base {
		t.Fatal("chunk 0 offset")
	}
	if h.ChunkOffset(2, 2) != base+8192 {
		t.Fatalf("chunk 2 offset %d, want %d", h.ChunkOffset(2, 2), base+8192)
	}
	if h.TotalSize() != h.FieldOffset(5)+BlockHeaderSize+fieldBytes {
		t.Fatal("TotalSize inconsistent with last field extent")
	}
}

func TestChunkOffsetsDisjointCover(t *testing.T) {
	// Property: chunk extents within a field tile the block exactly.
	f := func(sizes []uint16) bool {
		if len(sizes) == 0 || len(sizes) > 64 {
			return true
		}
		h := &Header{App: "x", Fields: []string{"a", "b"}}
		for _, s := range sizes {
			h.ChunkBytes = append(h.ChunkBytes, int64(s))
		}
		for f := 0; f < 2; f++ {
			expect := h.FieldOffset(f) + BlockHeaderSize
			for c := range h.ChunkBytes {
				if h.ChunkOffset(f, c) != expect {
					return false
				}
				expect += h.ChunkBytes[c]
			}
			if f == 0 && expect != h.FieldOffset(1) {
				return false
			}
			if f == 1 && expect != h.TotalSize() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// negativeLenHeader is a header whose preamble declares a payload length
// with bit 63 set: read as an int64 it is negative, and sizing a read by
// it once panicked the checkpoint reader.
func negativeLenHeader() []byte {
	b := sampleHeader().Marshal()
	binary.LittleEndian.PutUint64(b[12:], 1<<63|5)
	return b
}

// overflowChunksHeader is a header whose chunk sizes sum past MaxInt64,
// which would wrap every later chunk offset negative.
func overflowChunksHeader() []byte {
	return (&Header{App: "x", Fields: []string{"a"}, ChunkBytes: []int64{math.MaxInt64, 1}}).Marshal()
}

// overflowFileHeader is a header whose chunk sizes fit an int64 but whose
// field blocks together do not.
func overflowFileHeader() []byte {
	return (&Header{App: "x", Fields: []string{"a", "b"}, ChunkBytes: []int64{math.MaxInt64 / 2}}).Marshal()
}

// TestUnmarshalRejectsCorruption feeds each corrupt header to Unmarshal
// and, as a whole file, to Validate: both must fail with ErrFormat, and
// Validate must not read at a negative offset or length on the way.
func TestUnmarshalRejectsCorruption(t *testing.T) {
	good := sampleHeader().Marshal()

	cases := map[string][]byte{
		"empty":                {},
		"short":                good[:10],
		"bad magic":            append([]byte("WRONGMAG"), good[8:]...),
		"bad version":          func() []byte { b := append([]byte{}, good...); b[8] = 99; return b }(),
		"truncated":            good[:len(good)-5],
		"negative length":      negativeLenHeader(),
		"chunk sizes overflow": overflowChunksHeader(),
		"file size overflow":   overflowFileHeader(),
	}
	for name, b := range cases {
		if _, err := Unmarshal(b); !errors.Is(err, ErrFormat) {
			t.Errorf("%s: got %v, want ErrFormat", name, err)
		}
		if _, _, err := Validate(strictReader(t, b), int64(len(b))); !errors.Is(err, ErrFormat) {
			t.Errorf("%s: Validate got %v, want ErrFormat", name, err)
		}
	}
}

func TestHeaderLenFromPreambleRejectsHugeLengths(t *testing.T) {
	pre := sampleHeader().Marshal()[:PreambleSize]
	for _, n := range []uint64{1 << 63, 1<<63 | 5, math.MaxUint64, maxHeaderLen + 1} {
		binary.LittleEndian.PutUint64(pre[12:], n)
		if got, err := HeaderLenFromPreamble(pre); !errors.Is(err, ErrFormat) {
			t.Errorf("length %#x: got %d, %v; want ErrFormat", n, got, err)
		}
	}
	binary.LittleEndian.PutUint64(pre[12:], maxHeaderLen)
	if got, err := HeaderLenFromPreamble(pre); err != nil || got != maxHeaderLen {
		t.Errorf("length at the cap: got %d, %v", got, err)
	}
}

func TestBlockHeaderRoundTrip(t *testing.T) {
	b := BlockHeader("Ex", 123456)
	name, size, err := ParseBlockHeader(b)
	if err != nil || name != "Ex" || size != 123456 {
		t.Fatalf("got %q %d %v", name, size, err)
	}
	// Long names are truncated to 16 bytes, not corrupted.
	long := strings.Repeat("z", 40)
	b = BlockHeader(long, 1)
	name, _, err = ParseBlockHeader(b)
	if err != nil || name != long[:16] {
		t.Fatalf("long name: %q %v", name, err)
	}
}

func TestHeaderPropertyRoundTrip(t *testing.T) {
	f := func(app string, step int64, fields []string, chunks []uint32) bool {
		if len(fields) > 32 || len(chunks) > 256 {
			return true
		}
		h := &Header{App: app, Step: step, SimTime: 1.5, Fields: fields}
		for _, c := range chunks {
			h.ChunkBytes = append(h.ChunkBytes, int64(c))
		}
		got, err := Unmarshal(h.Marshal())
		if err != nil {
			return false
		}
		if got.App != app || got.Step != step || len(got.Fields) != len(fields) {
			return false
		}
		for i := range fields {
			if got.Fields[i] != fields[i] {
				return false
			}
		}
		for i := range h.ChunkBytes {
			if got.ChunkBytes[i] != h.ChunkBytes[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// memFile builds an in-memory checkpoint file for Validate tests.
func memFile(h *Header, fill byte) []byte {
	out := make([]byte, h.TotalSize())
	copy(out, h.Marshal())
	for fi, name := range h.Fields {
		copy(out[h.FieldOffset(fi):], BlockHeader(name, h.FieldBytes()))
		for c := range h.ChunkBytes {
			off := h.ChunkOffset(fi, c)
			for i := int64(0); i < h.ChunkBytes[c]; i++ {
				out[off+i] = fill
			}
		}
	}
	return out
}

func memReader(b []byte) ReaderAt {
	return func(off, n int64) ([]byte, error) {
		if off+n > int64(len(b)) {
			return nil, ErrFormat
		}
		return b[off : off+n], nil
	}
}

// strictReader is memReader for untrusted input: a negative offset or
// length fails the test (Validate must never compute one), and a range
// past the end is an ErrFormat error.
func strictReader(t testing.TB, b []byte) ReaderAt {
	return func(off, n int64) ([]byte, error) {
		if off < 0 || n < 0 {
			t.Fatalf("Validate read [%d, +%d): negative offset or length", off, n)
		}
		if n > int64(len(b)) || off > int64(len(b))-n {
			return nil, ErrFormat
		}
		return b[off : off+n], nil
	}
}

// FuzzUnmarshal feeds arbitrary bytes to every decoder: each must either
// succeed or fail with ErrFormat, and Validate must never read at a
// negative offset or length.
func FuzzUnmarshal(f *testing.F) {
	f.Add(sampleHeader().Marshal())
	f.Add(memFile(sampleHeader(), 7))
	f.Add(negativeLenHeader())
	f.Add(overflowChunksHeader())
	f.Fuzz(func(t *testing.T, b []byte) {
		check := func(op string, err error) {
			if err != nil && !errors.Is(err, ErrFormat) {
				t.Fatalf("%s: error %v is not ErrFormat", op, err)
			}
		}
		_, err := Unmarshal(b)
		check("Unmarshal", err)
		_, _, err = ParseBlockHeader(b)
		check("ParseBlockHeader", err)
		_, _, err = Validate(strictReader(t, b), int64(len(b)))
		check("Validate", err)
	})
}

func TestValidateGoodFile(t *testing.T) {
	h := sampleHeader()
	file := memFile(h, 7)
	got, checked, err := Validate(memReader(file), int64(len(file)))
	if err != nil {
		t.Fatal(err)
	}
	if checked != len(h.Fields) {
		t.Fatalf("checked %d blocks, want %d", checked, len(h.Fields))
	}
	if got.Step != h.Step {
		t.Fatalf("header step %d", got.Step)
	}
}

func TestValidateDetectsSizeMismatch(t *testing.T) {
	h := sampleHeader()
	file := memFile(h, 1)
	if _, _, err := Validate(memReader(file), int64(len(file))+5); err == nil {
		t.Fatal("size mismatch accepted")
	}
}

func TestValidateDetectsCorruptBlockHeader(t *testing.T) {
	h := sampleHeader()
	file := memFile(h, 1)
	copy(file[h.FieldOffset(2):], "WRONGNAME")
	if _, _, err := Validate(memReader(file), int64(len(file))); err == nil {
		t.Fatal("corrupt block header accepted")
	}
}

func TestValidateSkipsSyntheticBlocks(t *testing.T) {
	h := sampleHeader()
	file := memFile(h, 1)
	hidden := map[int]bool{2: true, 4: true}
	read := func(off, n int64) ([]byte, error) {
		for fi := range h.Fields {
			if hidden[fi] && off == h.FieldOffset(fi) {
				return nil, nil // not materialized
			}
		}
		return memReader(file)(off, n)
	}
	_, checked, err := Validate(read, int64(len(file)))
	if err != nil {
		t.Fatal(err)
	}
	if checked != len(h.Fields)-2 {
		t.Fatalf("checked %d, want %d", checked, len(h.Fields)-2)
	}
}
