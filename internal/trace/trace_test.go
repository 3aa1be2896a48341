package trace

import (
	"bytes"
	"errors"
	"math"
	"math/big"
	"strings"
	"testing"
)

// A nil *Recorder must absorb every call: the disabled path in the
// instrumented packages is a bare nil check, and several helpers (e.g.
// Kernel.observe) call methods on the nil recorder directly.
func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	r.Span(LayerMPI, "x", 0, 0, 1, 8)
	r.Instant(LayerMPI, "x", 0, 0)
	r.Counter(LayerMPI, "x", 0, 0, 1)
	r.Add(LayerMPI, "x", 1)
	r.Advance(LayerMPI, 0, 1)
	if r.Events() != nil || r.Snapshot("", 0).Dropped != 0 {
		t.Fatal("nil recorder reported state")
	}
	if r.LayerTime(LayerMPI) != 0 || r.AttributedTotal() != 0 {
		t.Fatal("nil recorder reported time")
	}
}

// Advance over consecutive intervals must telescope exactly: the per-layer
// sums reproduce the makespan to within 1e-9 even across layers, because
// each delta is captured with a branch-free 2Sum and accumulated with
// Neumaier compensation.
func TestAdvanceTelescopes(t *testing.T) {
	r := NewRecorder()
	// Irregular float steps designed to lose low bits under naive summation.
	ts := []float64{0}
	x := 0.0
	for i := 1; i <= 100000; i++ {
		x += 1e-7 * float64(i%13+1) / 3.0
		ts = append(ts, x)
	}
	for i := 1; i < len(ts); i++ {
		r.Advance(Layer(i%int(NumLayers)), ts[i-1], ts[i])
	}
	makespan := ts[len(ts)-1]
	got := r.AttributedTotal()
	if d := math.Abs(got - makespan); d > 1e-9 {
		t.Fatalf("attributed %v != makespan %v (|diff| %g)", got, makespan, d)
	}
}

func TestTwoSumExact(t *testing.T) {
	cases := [][2]float64{
		{1e16, 1}, {0.1, 0.2}, {-1e-30, 1e30}, {3.14, -2.71},
	}
	for _, c := range cases {
		s, e := twoSum(c[0], c[1])
		if s != c[0]+c[1] {
			t.Fatalf("twoSum sum %v != %v", s, c[0]+c[1])
		}
		// s + e must equal a + b exactly; verify in arbitrary precision.
		exact := new(big.Float).SetPrec(200).Add(big.NewFloat(c[0]), big.NewFloat(c[1]))
		got := new(big.Float).SetPrec(200).Add(big.NewFloat(s), big.NewFloat(e))
		if exact.Cmp(got) != 0 {
			t.Fatalf("twoSum(%v,%v) = (%v,%v) loses precision", c[0], c[1], s, e)
		}
	}
}

func TestEventCapDropsTimelineKeepsAggregates(t *testing.T) {
	r := NewRecorder()
	r.MaxEvents = 10
	for i := 0; i < 100; i++ {
		r.Span(LayerStorage, "w", 0, float64(i), float64(i)+0.5, 4)
	}
	if len(r.Events()) != 10 {
		t.Fatalf("retained %d events, want 10", len(r.Events()))
	}
	if r.dropped != 90 {
		t.Fatalf("dropped %d, want 90", r.dropped)
	}
	m := r.Snapshot("t", 100)
	if len(m.Spans) != 1 || m.Spans[0].Count != 100 {
		t.Fatalf("span aggregate did not survive the cap: %+v", m.Spans)
	}
}

func TestHistogramBuckets(t *testing.T) {
	if histBucket(0) != 0 || histBucket(5e-7) != 0 {
		t.Fatal("sub-µs spans must land in bucket 0")
	}
	if histBucket(5e-6) != 1 || histBucket(0.5) != 6 || histBucket(1e9) != HistBuckets-1 {
		t.Fatal("bucket edges misplaced")
	}
	for i := 0; i < HistBuckets; i++ {
		if HistLabel(i) == "" {
			t.Fatalf("bucket %d has no label", i)
		}
	}
}

func TestSpanStatsMinMaxBytes(t *testing.T) {
	r := NewRecorder()
	r.Span(LayerMPI, "send", 1, 0, 2, 100)
	r.Span(LayerMPI, "send", 2, 5, 5.5, 200)
	m := r.Snapshot("t", 10)
	if len(m.Spans) != 1 {
		t.Fatalf("want 1 span row, got %d", len(m.Spans))
	}
	s := m.Spans[0]
	if s.Count != 2 || s.Min != 0.5 || s.Max != 2 || s.Bytes != 300 {
		t.Fatalf("bad span stats: %+v", s)
	}
	if s.Total != 2.5 {
		t.Fatalf("total %v, want 2.5", s.Total)
	}
}

func TestWriteJSONRoundTrip(t *testing.T) {
	r := NewRecorder()
	r.Span(LayerFabric, "pipe", 3, 0.001, 0.002, 4096)
	r.Instant(LayerStorage, "retry", 0, 0.005)
	r.Counter(LayerKernel, "depth", 0, 0.004, 17)
	r.Advance(LayerStorage, 0, 0.01)

	var buf bytes.Buffer
	if err := WriteJSON(&buf, []RunTrace{{Label: "run", Makespan: 0.01, Rec: r}}); err != nil {
		t.Fatal(err)
	}
	f, err := ReadFile(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	n, err := f.Validate()
	if err != nil {
		t.Fatalf("trace events malformed: %v", err)
	}
	if n != 3 {
		t.Fatalf("validated %d events, want 3", n)
	}
	if len(f.Metrics) != 1 || f.Metrics[0].Label != "run" {
		t.Fatalf("metrics not embedded: %+v", f.Metrics)
	}
	if !strings.Contains(buf.String(), `"displayTimeUnit"`) {
		t.Fatal("missing displayTimeUnit header")
	}
}

func TestSnapshotStableOrder(t *testing.T) {
	r := NewRecorder()
	r.Add(LayerMPI, "b", 1)
	r.Add(LayerMPI, "a", 1)
	r.Add(LayerKernel, "z", 1)
	m := r.Snapshot("t", 1)
	if len(m.Counters) != 3 {
		t.Fatalf("want 3 counters, got %d", len(m.Counters))
	}
	if m.Counters[0].Name != "z" || m.Counters[1].Name != "a" || m.Counters[2].Name != "b" {
		t.Fatalf("counters not sorted by (layer, name): %+v", m.Counters)
	}
}

func TestNegativeSpanClamped(t *testing.T) {
	r := NewRecorder()
	r.Span(LayerMPI, "x", 0, 2, 1, 0) // end before start
	m := r.Snapshot("t", 2)
	if m.Spans[0].Total != 0 || m.Spans[0].Min != 0 {
		t.Fatalf("negative duration must clamp to 0: %+v", m.Spans[0])
	}
}

func TestLayerString(t *testing.T) {
	seen := map[string]bool{}
	for l := Layer(0); l < NumLayers; l++ {
		s := l.String()
		if s == "" || seen[s] {
			t.Fatalf("layer %d has empty/duplicate name %q", l, s)
		}
		seen[s] = true
	}
}

// FuzzReadFile decodes arbitrary input, validates what it accepts and
// renders its metrics tables, as iolog -metrics does: each step must fail
// with ErrFormat or complete, and never panic.
func FuzzReadFile(f *testing.F) {
	r := NewRecorder()
	r.Span(LayerMPI, "mpi.send", 3, 0.001, 0.002, 4096)
	r.Span(LayerStorage, "gpfs.commit", 7, 0.002, 12, 1<<20)
	r.Instant(LayerStorage, "retry", 0, 0.005)
	r.Counter(LayerKernel, "cal.depth", 0, 0.004, 17)
	r.Add(LayerMPI, "mpi.msgs", 1)
	r.Advance(LayerStorage, 0, 12)
	var buf bytes.Buffer
	if err := WriteJSON(&buf, []RunTrace{{Label: "run", Makespan: 12, Rec: r}}); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"traceEvents":[{"ph":"X","name":"s","ts":1,"dur":-1}]}`))
	f.Add([]byte(`{"traceEvents":[{"ph":"C","name":"c","ts":-1,"args":{}}]}`))
	f.Add([]byte(`{"metrics":[{"makespan":-0,"layers":[{"seconds":1e308}],"spans":[{"hist":[1,2,3,4,5,6,7,8,9,10,11,12]}]}]}`))
	f.Add([]byte(`{"traceEvents":null} trailing`))
	f.Fuzz(func(t *testing.T, b []byte) {
		tf, err := ReadFile(bytes.NewReader(b))
		if err != nil {
			if !errors.Is(err, ErrFormat) {
				t.Fatalf("ReadFile: error %v is not ErrFormat", err)
			}
			return
		}
		n, err := tf.Validate()
		if err != nil && !errors.Is(err, ErrFormat) {
			t.Fatalf("Validate: error %v is not ErrFormat", err)
		}
		if n < 0 || n > len(tf.TraceEvents) {
			t.Fatalf("Validate counted %d of %d events", n, len(tf.TraceEvents))
		}
		for _, m := range tf.Metrics {
			m.Table()
		}
	})
}
