package sim

import (
	"testing"

	"repro/internal/trace"
)

// tickHook reschedules itself until remaining hits zero: a pure
// schedule/dispatch workload touching only the kernel hot path.
type tickHook struct {
	k         *Kernel
	dt        float64
	remaining int
}

func (h *tickHook) Fire() {
	if h.remaining--; h.remaining > 0 {
		h.k.AfterHook(h.dt, h)
	}
}

// TestDisabledTracingAllocFree pins the zero-cost contract: with no
// recorder installed, the kernel's schedule/dispatch cycle must not
// allocate. The tracing hooks on this path are a single `k.rec != nil`
// check (dispatch) and a shift-or into the seq word (insert); anything
// more shows up here as a failure.
func TestDisabledTracingAllocFree(t *testing.T) {
	k := NewKernel()
	h := &tickHook{k: k, dt: 1e-6}
	run := func() {
		h.remaining = 20000
		k.AtHook(k.Now()+h.dt, h)
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the calendar queue: bucket slices keep their capacity
	if avg := testing.AllocsPerRun(10, run); avg != 0 {
		t.Fatalf("disabled-tracing dispatch allocates: %.1f allocs per 20k events", avg)
	}
}

// TestEnabledTracingAttributes is the control for the test above: the
// same workload with a recorder installed must attribute every clock
// advance, proving the nil check is the only thing separating the paths.
// Dispatched counts every dispatch, traced or not.
func TestEnabledTracingAttributes(t *testing.T) {
	for _, rec := range []*trace.Recorder{trace.NewRecorder(), nil} {
		k := NewKernel()
		k.SetRecorder(rec)
		h := &tickHook{k: k, dt: 1e-6, remaining: 1000}
		k.AtHook(h.dt, h)
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if rec != nil && rec.AttributedTotal() == 0 {
			t.Fatal("recorder attributed no time with tracing enabled")
		}
		if k.Dispatched() != 1000 {
			t.Fatalf("traced=%v: dispatched %d events, want 1000", rec != nil, k.Dispatched())
		}
	}
}

// BenchmarkDispatch measures the kernel's event cycle with tracing off
// and on; run with -benchmem to see the disabled path report 0 B/op.
func BenchmarkDispatch(b *testing.B) {
	for _, c := range []struct {
		name string
		rec  *trace.Recorder
	}{
		{"tracing-off", nil},
		{"tracing-on", trace.NewRecorder()},
	} {
		b.Run(c.name, func(b *testing.B) {
			k := NewKernel()
			k.SetRecorder(c.rec)
			h := &tickHook{k: k, dt: 1e-6}
			b.ReportAllocs()
			b.ResetTimer()
			h.remaining = b.N
			k.AtHook(k.Now()+h.dt, h)
			if err := k.Run(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkSleep measures the process path — Sleep's fast path advances
// the clock inline (with a recorder, one Advance call) without touching
// the calendar.
func BenchmarkSleep(b *testing.B) {
	for _, c := range []struct {
		name string
		rec  *trace.Recorder
	}{
		{"tracing-off", nil},
		{"tracing-on", trace.NewRecorder()},
	} {
		b.Run(c.name, func(b *testing.B) {
			k := NewKernel()
			k.SetRecorder(c.rec)
			b.ReportAllocs()
			b.ResetTimer()
			k.Go("sleeper", func(p *Proc) {
				for i := 0; i < b.N; i++ {
					p.Sleep(1e-6)
				}
			})
			if err := k.Run(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// TestEnterLeave pins the traced-operation bracket. Tracing off, Enter and
// Leave allocate nothing and leave the layer alone. Tracing on, Leave
// records the span from Enter's start to now and restores the caller's
// layer.
func TestEnterLeave(t *testing.T) {
	for _, rec := range []*trace.Recorder{nil, trace.NewRecorder()} {
		k := NewKernel()
		k.SetRecorder(rec)
		outer := k.layer
		k.Go("op", func(p *Proc) {
			p.Sleep(1)
			prev, t0 := p.Enter(trace.LayerMPI)
			want := outer
			if rec != nil {
				want = trace.LayerMPI
			}
			if k.layer != want {
				t.Errorf("traced=%v: layer %v inside the operation, want %v", rec != nil, k.layer, want)
			}
			p.Sleep(2)
			p.Leave(prev, trace.LayerMPI, "op", 3, t0, 64)
			if k.layer != outer {
				t.Errorf("traced=%v: layer %v after Leave, want %v", rec != nil, k.layer, outer)
			}
			if rec == nil {
				if avg := testing.AllocsPerRun(100, func() {
					prev, t0 := p.Enter(trace.LayerMPI)
					p.Leave(prev, trace.LayerMPI, "op", 3, t0, 64)
				}); avg != 0 {
					t.Errorf("untraced Enter/Leave allocate: %.1f allocs per call", avg)
				}
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if rec == nil {
			continue
		}
		want := trace.Event{Layer: trace.LayerMPI, Kind: trace.KindSpan, Track: 3, Name: "op", T: 1, Dur: 2, Value: 64}
		if evs := rec.Events(); len(evs) != 1 || evs[0] != want {
			t.Errorf("recorded %+v, want one span %+v", evs, want)
		}
	}
}
