package exp

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/table"
	"repro/internal/trace"
)

// TestTraceMetricsSumToMakespan runs the headline grid at np 512 with
// tracing on and checks the recorder's accounting contract: the per-layer
// attributed simulated times of every run sum to that run's makespan within
// 1e-9 (the acceptance bound; the compensated accumulation typically lands
// within 1e-12).
func TestTraceMetricsSumToMakespan(t *testing.T) {
	tc := &TraceCollector{}
	o := Options{NPs: []int{512}, Trace: tc}
	if _, err := Headline(o); err != nil {
		t.Fatal(err)
	}
	entries := tc.Entries()
	if len(entries) != 5 {
		t.Fatalf("collected %d traces, want 5 (one per approach)", len(entries))
	}
	for _, e := range entries {
		if e.Makespan <= 0 {
			t.Fatalf("%s: non-positive makespan %v", e.Label, e.Makespan)
		}
		got := e.Rec.AttributedTotal()
		if d := math.Abs(got - e.Makespan); d > 1e-9 {
			t.Errorf("%s: attributed %.12f vs makespan %.12f (|diff| %.3g > 1e-9)",
				e.Label, got, e.Makespan, d)
		}
		if d := e.Rec.Snapshot(e.Label, e.Makespan).Dropped; d > 0 {
			t.Logf("%s: %d events dropped past the cap (aggregates complete)", e.Label, d)
		}
	}
}

// TestTraceLayersPopulated checks that a traced rbIO run on gpfs actually
// records from every instrumented layer: mpi sends, fabric pipes, storage
// commit chain, checkpoint phases, compute steps and kernel counters.
func TestTraceLayersPopulated(t *testing.T) {
	tc := &TraceCollector{}
	o := Options{NPs: []int{512}, Trace: tc}
	if _, err := Headline(o, 4); err != nil { // rbIO nf=ng
		t.Fatal(err)
	}
	entries := tc.Entries()
	if len(entries) != 1 {
		t.Fatalf("collected %d traces, want 1", len(entries))
	}
	m := entries[0].Rec.Snapshot(entries[0].Label, entries[0].Makespan)
	wantSpans := map[string]bool{
		"mpi.isend": false, "mpi.wait": false, // worker hand-off
		"ion.funnel": false, "eth.nic": false, "eth.core": false, // fabric
		"server.write": false, "md.create": false, "fs.write": false, // storage
		"ckpt.step": false, "rbio.handoff": false, // checkpoint phases
	}
	for _, s := range m.Spans {
		if _, ok := wantSpans[s.Name]; ok {
			wantSpans[s.Name] = true
			if s.Count <= 0 {
				t.Errorf("span %s present but empty", s.Name)
			}
		}
	}
	for name, seen := range wantSpans {
		if !seen {
			t.Errorf("span %q missing from traced rbIO run", name)
		}
	}
	wantCounters := []string{"mpi.msgs", "mpi.bytes", "kernel.events", "kernel.dispatched", "kernel.woken"}
	have := map[string]int64{}
	for _, c := range m.Counters {
		have[c.Name] = c.Value
	}
	for _, name := range wantCounters {
		if have[name] <= 0 {
			t.Errorf("counter %q missing or zero (%d)", name, have[name])
		}
	}
	// Compute time must be attributed: the solver brackets its step sleep.
	if lt := entries[0].Rec.LayerTime(trace.LayerCompute); lt <= 0 {
		t.Error("no simulated time attributed to the compute layer")
	}
}

// TestTraceJSONValid writes the collected np-512 traces as Perfetto JSON
// and validates the trace_event schema (the acceptance criterion behind
// `iobench -exp fig5 -np 512 -trace out.json`).
func TestTraceJSONValid(t *testing.T) {
	tc := &TraceCollector{}
	o := Options{NPs: []int{512}, Trace: tc}
	if _, err := Headline(o, 0, 4); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tc.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	f, err := trace.ReadFile(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("-trace output is not valid JSON: %v", err)
	}
	n, err := f.Validate()
	if err != nil {
		t.Fatalf("-trace output violates the trace_event schema: %v", err)
	}
	if n == 0 {
		t.Fatal("-trace output contains no events")
	}
	if len(f.Metrics) != 2 {
		t.Fatalf("embedded metrics for %d runs, want 2", len(f.Metrics))
	}
	for _, m := range f.Metrics {
		if d := math.Abs(m.Attributed - m.Makespan); d > 1e-9 {
			t.Errorf("%s: embedded metrics attributed %.12f vs makespan %.12f", m.Label, m.Attributed, m.Makespan)
		}
	}
}

// TestTracingDoesNotPerturbGoldens re-runs the golden fscompare experiment
// with tracing enabled and requires the byte-identical table. Tracing is
// observation only: the layer tags ride in seq bits the event comparator
// masks out, and every recorder call happens outside the simulated-time
// arithmetic.
func TestTracingDoesNotPerturbGoldens(t *testing.T) {
	tc := &TraceCollector{}
	rows, err := FSComparisonOn(Options{Seed: 3, NPs: []int{2048}, Trace: tc}, 2048, "gpfs", "pvfs")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fscompare_np2048_seed3.golden", table.Of(rows))
	if len(tc.Entries()) != 6 {
		t.Fatalf("collected %d traces, want 6", len(tc.Entries()))
	}
}

// TestTraceParallelDeterministic runs the same traced grid serially and on
// a worker pool and requires identical collected aggregates: recorders are
// per-run, and Entries() sorts, so the pool cannot perturb the output.
func TestTraceParallelDeterministic(t *testing.T) {
	run := func(parallel int) []trace.Metrics {
		tc := &TraceCollector{}
		o := Options{NPs: []int{512}, Trace: tc, Parallel: parallel}
		if _, err := Headline(o); err != nil {
			t.Fatal(err)
		}
		return tc.Metrics()
	}
	serial, pooled := run(1), run(4)
	if len(serial) != len(pooled) {
		t.Fatalf("run counts differ: %d vs %d", len(serial), len(pooled))
	}
	for i := range serial {
		a, b := serial[i], pooled[i]
		if a.Label != b.Label || a.Makespan != b.Makespan || a.Attributed != b.Attributed {
			t.Errorf("run %d differs: %q %.9f/%.9f vs %q %.9f/%.9f",
				i, a.Label, a.Makespan, a.Attributed, b.Label, b.Makespan, b.Attributed)
		}
	}
}

// TestTraceShardedMatchesSerial runs the traced Figure 5 grid at np 2048
// on the serial and on the partitioned kernel and requires one account of
// where the time went: every layer's attributed time within 1e-9 s, and
// every span aggregate's count, bytes, min and max equal.
func TestTraceShardedMatchesSerial(t *testing.T) {
	run := func(shards int) []TraceEntry {
		tc := &TraceCollector{}
		if _, err := Headline(Options{NPs: []int{2048}, Shards: shards, Trace: tc}); err != nil {
			t.Fatal(err)
		}
		return tc.Entries()
	}
	serial, sharded := run(1), run(4)
	if len(serial) != 5 || len(sharded) != len(serial) {
		t.Fatalf("collected %d serial and %d sharded traces, want 5 each", len(serial), len(sharded))
	}
	for i, s := range serial {
		h := sharded[i]
		for l := trace.Layer(0); l < trace.NumLayers; l++ {
			if d := math.Abs(s.Rec.LayerTime(l) - h.Rec.LayerTime(l)); d > 1e-9 {
				t.Errorf("%s: %s time %.9f serial, %.9f sharded", s.Label, l, s.Rec.LayerTime(l), h.Rec.LayerTime(l))
			}
		}
		ss, hs := s.Rec.Snapshot("", s.Makespan).Spans, h.Rec.Snapshot("", h.Makespan).Spans
		if len(ss) != len(hs) {
			t.Errorf("%s: %d span rows serial, %d sharded", s.Label, len(ss), len(hs))
			continue
		}
		for j, a := range ss {
			b := hs[j]
			if a.Layer != b.Layer || a.Name != b.Name || a.Count != b.Count || a.Bytes != b.Bytes || a.Min != b.Min || a.Max != b.Max {
				t.Errorf("%s: span %+v serial, %+v sharded", s.Label, a, b)
			}
		}
	}
}
