package iolog

import (
	"bytes"
	"errors"
	"math"
	"os"
	"strings"
	"testing"
)

func sampleLog() *Log {
	l := &Log{}
	l.Add(Record{Rank: 0, Op: OpCreate, Start: 0, End: 0.5})
	l.Add(Record{Rank: 0, Op: OpWrite, Start: 0.5, End: 2.5, Bytes: 2000})
	l.Add(Record{Rank: 1, Op: OpWrite, Start: 1.0, End: 2.0, Bytes: 1000})
	l.Add(Record{Rank: 1, Op: OpClose, Start: 2.0, End: 2.2})
	l.Add(Record{Rank: 2, Op: OpSend, Start: 0.1, End: 0.2, Bytes: 512})
	return l
}

func TestPerRankTimeAllOps(t *testing.T) {
	l := sampleLog()
	times, err := l.PerRankTime(3)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2.5, 1.2, 0.1}
	for i := range want {
		if math.Abs(times[i]-want[i]) > 1e-12 {
			t.Fatalf("rank %d time %v, want %v", i, times[i], want[i])
		}
	}
}

func TestPerRankTimeFiltered(t *testing.T) {
	l := sampleLog()
	times, err := l.PerRankTime(3, OpWrite)
	if err != nil {
		t.Fatal(err)
	}
	if times[0] != 2.0 || times[1] != 1.0 || times[2] != 0 {
		t.Fatalf("filtered times %v", times)
	}
}

func TestActivityCountsConcurrentWriters(t *testing.T) {
	l := sampleLog()
	bins, err := l.Activity(1.0, OpWrite)
	if err != nil || len(bins) < 2 {
		t.Fatalf("bins %v", bins)
	}
	// In bin [0.5, ...) starting at t=0.5... bins start at lo=0.5 (first
	// write). Bin 0 = [0.5,1.5): both writers active (rank0 throughout,
	// rank1 from 1.0). Bin 1 = [1.5,2.5): both active until 2.0.
	if bins[0].Writers != 2 {
		t.Fatalf("bin0 writers %d, want 2", bins[0].Writers)
	}
	if bins[1].Writers != 2 {
		t.Fatalf("bin1 writers %d, want 2", bins[1].Writers)
	}
	var totalBytes int64
	for _, b := range bins {
		totalBytes += b.Bytes
	}
	// Proportional attribution conserves bytes up to rounding.
	if totalBytes < 2900 || totalBytes > 3000 {
		t.Fatalf("activity bytes %d, want ~3000", totalBytes)
	}
}

func TestSummarize(t *testing.T) {
	l := sampleLog()
	s := l.Summarize()
	if s.Ops != 5 {
		t.Fatalf("ops %d", s.Ops)
	}
	if s.BytesWritten != 3000 {
		t.Fatalf("bytes written %d", s.BytesWritten)
	}
	if s.FirstStart != 0 || s.LastEnd != 2.5 {
		t.Fatalf("span [%v, %v]", s.FirstStart, s.LastEnd)
	}
	if math.Abs(s.Bandwidth-1200) > 1e-9 {
		t.Fatalf("bandwidth %v, want 1200", s.Bandwidth)
	}
}

func TestQuantiles(t *testing.T) {
	times := []float64{5, 1, 3, 2, 4}
	qs := Quantiles(times, 0, 0.5, 1)
	if qs[0] != 1 || qs[1] != 3 || qs[2] != 5 {
		t.Fatalf("quantiles %v", qs)
	}
	empty := Quantiles(nil, 0.5)
	if empty[0] != 0 {
		t.Fatalf("empty quantile %v", empty)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	l := sampleLog()
	var buf bytes.Buffer
	if err := l.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != l.Len() {
		t.Fatalf("round trip %d records, want %d", got.Len(), l.Len())
	}
	for i := range l.Records {
		if got.Records[i] != l.Records[i] {
			t.Fatalf("record %d differs: %+v vs %+v", i, got.Records[i], l.Records[i])
		}
	}
}

func TestNilLogSafe(t *testing.T) {
	var l *Log
	l.Add(Record{}) // must not panic
	if l.Len() != 0 {
		t.Fatal("nil log has records")
	}
}

func TestOpJSONNames(t *testing.T) {
	for o := Op(0); o < numOps; o++ {
		b, err := o.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		var back Op
		if err := back.UnmarshalJSON(b); err != nil {
			t.Fatal(err)
		}
		if back != o {
			t.Fatalf("op %v round-tripped to %v", o, back)
		}
	}
	var bad Op
	if err := bad.UnmarshalJSON([]byte(`"bogus"`)); err == nil {
		t.Fatal("unknown op accepted")
	}
}

func TestScatterRendersBands(t *testing.T) {
	// Two bands: first half near zero, second half near 10.
	values := make([]float64, 100)
	for i := 50; i < 100; i++ {
		values[i] = 10
	}
	s := Scatter(values, 20, 8)
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 10 { // 8 rows + axis + caption
		t.Fatalf("%d lines:\n%s", len(lines), s)
	}
	top, bottom := lines[0], lines[7]
	// The top row should only have glyphs on the right half; the bottom row
	// only on the left half.
	topCells := strings.SplitN(top, "|", 2)[1]
	bottomCells := strings.SplitN(bottom, "|", 2)[1]
	if strings.TrimSpace(topCells[:10]) != "" || strings.TrimSpace(topCells[10:]) == "" {
		t.Fatalf("top band wrong: %q", topCells)
	}
	if strings.TrimSpace(bottomCells[:10]) == "" || strings.TrimSpace(bottomCells[10:]) != "" {
		t.Fatalf("bottom band wrong: %q", bottomCells)
	}
}

func TestScatterDegenerate(t *testing.T) {
	if Scatter(nil, 10, 10) != "" {
		t.Fatal("empty scatter should render nothing")
	}
	if Scatter([]float64{0, 0, 0}, 10, 5) == "" {
		t.Fatal("all-zero scatter should still render a frame")
	}
}

// TestReadJSONRejectsMalformed pins that ReadJSON refuses, with ErrFormat,
// undecodable input and every record no run could have logged.
func TestReadJSONRejectsMalformed(t *testing.T) {
	for _, in := range []string{
		`{"records":[{"rank":4000000000000,"op":"write","start":0,"end":1}]}`,
		`{"records":[{"rank":1e30,"op":"write","start":0,"end":1}]}`,
		`{"records":[{"rank":-1,"op":"write","start":0,"end":1}]}`,
		`{"records":[{"rank":0,"op":"write","start":-1,"end":1}]}`,
		`{"records":[{"rank":0,"op":"write","start":2,"end":1}]}`,
		`{"records":[{"rank":0,"op":"write","start":0,"end":1e400}]}`,
		`{"records":[{"rank":0,"op":"write","start":0,"end":1,"bytes":-5}]}`,
		`{"records":[{"rank":0,"op":"bogus","start":0,"end":1}]}`,
		`{"records":[`,
		`not json`,
	} {
		if _, err := ReadJSON(strings.NewReader(in)); !errors.Is(err, ErrFormat) {
			t.Errorf("ReadJSON(%s) = %v, want ErrFormat", in, err)
		}
	}
}

// TestAnalysisRejectsOutOfRange pins ErrRange for a rank count or bin
// width out of range, and for a span that needs more than MaxBins bins.
func TestAnalysisRejectsOutOfRange(t *testing.T) {
	l := sampleLog()
	for _, ranks := range []int{-3, MaxRanks + 1} {
		if _, err := l.PerRankTime(ranks); !errors.Is(err, ErrRange) {
			t.Errorf("PerRankTime(%d) = %v, want ErrRange", ranks, err)
		}
	}
	for _, dt := range []float64{0, -1, math.NaN(), math.Inf(1), 1e-300} {
		if _, err := l.Activity(dt); !errors.Is(err, ErrRange) {
			t.Errorf("Activity(%v) = %v, want ErrRange", dt, err)
		}
	}
	long, err := ReadJSON(strings.NewReader(`{"records":[{"rank":0,"op":"write","start":0,"end":1e300}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := long.Activity(0.5, OpWrite); !errors.Is(err, ErrRange) {
		t.Errorf("Activity over a 1e300 s span = %v, want ErrRange", err)
	}
	// The sample's writes span 2 s.
	if bins, err := l.Activity(2.0/(MaxBins-1), OpWrite); err != nil || len(bins) > MaxBins {
		t.Errorf("Activity at the bin cap: %d bins, %v", len(bins), err)
	}
}

// FuzzReadJSON decodes arbitrary input and runs every analysis on what it
// accepts: each step must fail with ErrFormat or ErrRange or complete, and
// never panic. ranks 0 infers the rank count, as cmd/iolog does.
func FuzzReadJSON(f *testing.F) {
	nek, err := os.ReadFile("testdata/nekcem-np4-rbio.json") // nekcem -np 4 -ckpt rbio -steps 20 -log
	if err != nil {
		f.Fatal(err)
	}
	var sample bytes.Buffer
	if err := sampleLog().WriteJSON(&sample); err != nil {
		f.Fatal(err)
	}
	f.Add(nek, 0, 0.5)
	f.Add([]byte(`{"records":[{"rank":0,"op":"write","start":0,"end":1e300,"bytes":1}]}`), 0, 0.5)
	f.Add([]byte(`{"records":[{"rank":4000000000000,"op":"write","start":0,"end":1}]}`), 0, 0.5)
	f.Add(sample.Bytes(), -3, 0.5)
	f.Add(sample.Bytes(), 0, math.NaN())
	f.Add(sample.Bytes(), 0, 1e-300)
	f.Fuzz(func(t *testing.T, b []byte, ranks int, dt float64) {
		l, err := ReadJSON(bytes.NewReader(b))
		if err != nil {
			if !errors.Is(err, ErrFormat) {
				t.Fatalf("ReadJSON: error %v is not ErrFormat", err)
			}
			return
		}
		l.Summarize()
		if ranks == 0 {
			ranks = l.Ranks()
		}
		if times, err := l.PerRankTime(ranks); err != nil && !errors.Is(err, ErrRange) {
			t.Fatalf("PerRankTime(%d): error %v is not ErrRange", ranks, err)
		} else if err == nil && len(times) != ranks {
			t.Fatalf("PerRankTime(%d): %d times", ranks, len(times))
		}
		if bins, err := l.Activity(dt, OpWrite); err != nil && !errors.Is(err, ErrRange) {
			t.Fatalf("Activity(%v): error %v is not ErrRange", dt, err)
		} else if len(bins) > MaxBins {
			t.Fatalf("Activity(%v): %d bins, cap %d", dt, len(bins), MaxBins)
		}
	})
}
