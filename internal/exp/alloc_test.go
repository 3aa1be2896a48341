package exp

import (
	"runtime/metrics"
	"testing"
)

// heapAllocBytes reads the cumulative bytes the process has allocated on
// the heap.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// TestRbIOAllocBudget pins what a serial fig5 rbIO nf=ng run at np=4096
// allocates: on runs that collect only a few times, allocation volume sets
// peak RSS. With block-recycled calendar storage and gather runs,
// checkpoint fields and rbIO commit runs sized up front, the run allocates
// 16–19 MB; the budget leaves about 5 MB for other growth.
func TestRbIOAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("np=4096 simulation")
	}
	const budget = 24e6
	o := Options{Seed: 1, NPs: []int{4096}, Ckpt: "rbio", Parallel: 1}
	before := heapAllocBytes()
	if _, err := Headline(o); err != nil {
		t.Fatal(err)
	}
	got := heapAllocBytes() - before
	t.Logf("fig5 rbio np=4096 allocated %.1f MB", float64(got)/1e6)
	if got > budget {
		t.Errorf("fig5 rbio np=4096 allocated %.1f MB, budget %.0f MB", float64(got)/1e6, budget/1e6)
	}
}

// TestResumeBudget pins the kernel's host-side work for a traced fig5 run at
// np=512, a gate that no hardware moves. kernel.events is exact: the
// calendar's (t, seq) order is part of the determinism contract, so no
// optimization may add or drop an event. kernel.woken, the coroutine
// resumes, may only fall: the folded waits (the barrier's release and
// latency, mpiio's paired allgathers, rbIO's Isend-then-Wait) took coio1
// from 22,984 to 15,816 and rbio from 11,168 to 8,149.
func TestResumeBudget(t *testing.T) {
	for _, tc := range []struct {
		ckpt          string
		events, woken int64
	}{
		{"coio1", 99384, 15816},
		{"rbio", 35432, 8149},
	} {
		trc := &TraceCollector{}
		o := Options{Seed: 1, NPs: []int{512}, Ckpt: tc.ckpt, Parallel: 1, Trace: trc}
		if _, err := Headline(o); err != nil {
			t.Fatal(err)
		}
		entries := trc.Entries()
		if len(entries) != 1 {
			t.Fatalf("%s: collected %d traces, want 1", tc.ckpt, len(entries))
		}
		have := map[string]int64{}
		for _, c := range entries[0].Rec.Snapshot("", entries[0].Makespan).Counters {
			have[c.Name] = c.Value
		}
		if got := have["kernel.events"]; got != tc.events {
			t.Errorf("%s: kernel.events = %d, want exactly %d", tc.ckpt, got, tc.events)
		}
		if got := have["kernel.woken"]; got > tc.woken {
			t.Errorf("%s: kernel.woken = %d, budget %d", tc.ckpt, got, tc.woken)
		}
	}
}
