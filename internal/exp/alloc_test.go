package exp

import (
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/nekcem"
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
// 18–21 MB, of which 1.6 MB is the ranks' solver states, kept on the heap
// since they left the rank body's frame; the budget leaves about 3 MB for
// other growth.
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
// from 22,984 to 15,816 and rbio from 11,168 to 8,149, and rbIO's hand-off
// and aggregation as one sequence each (mpi.Comm.StartIsendWaitSeq,
// mpi.Comm.RecvSeq) took rbio to 2,612. Rank bodies that run in their
// resumes' slots (sim.Kernel.Start) took it to 68: rbIO's workers never
// hold a coroutine, and only its writers' borrowed phases are woken.
// coIO's step as one continuation of the rank (ckpt.coPlan, mpiio.Call)
// took coio1 to 398 and coio (64:1), 16,535 at its parent, to 1,453: only
// group rank 0's create and close and the aggregators' commits are woken.
func TestResumeBudget(t *testing.T) {
	for _, tc := range []struct {
		ckpt          string
		events, woken int64
	}{
		{"coio1", 99384, 398},
		{"rbio", 35432, 68},
		{"coio", 100269, 1453},
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

// stackSample is what one forced collection saw: the average stack in use
// per live goroutine, the starting stack size the runtime chose from it,
// the stack memory allocated and the live goroutines.
type stackSample struct {
	avg, start, stacks, goroutines uint64
}

// collect forces a collection and reads its stack scan.
func collect() stackSample {
	runtime.GC()
	s := []metrics.Sample{
		{Name: "/gc/scan/stack:bytes"},
		{Name: "/sched/goroutines:goroutines"},
		{Name: "/gc/stack/starting-size:bytes"},
		{Name: "/memory/classes/heap/stacks:bytes"},
	}
	metrics.Read(s)
	n := s[1].Value.Uint64()
	return stackSample{avg: s[0].Value.Uint64() / n, start: s[2].Value.Uint64(), stacks: s[3].Value.Uint64(), goroutines: n}
}

// TestRankStackBudget pins which ranks hold a goroutine and how deep a
// parked one's stack is. A rank's body runs on the driver's stack and
// borrows a coroutine only for a phase that blocks (DESIGN §5), so the
// test collects twice on the serial kernel at np=4096, with every rank
// alive: while every rank waits in its first collective, and halfway to
// the first rank's return from the checkpoint step.
//
// rbIO's and coIO's Plans, rbIO's workers' hand-off and coIO's whole step
// are continuations, so at both collections only the ranks that called
// into storage, and a few other goroutines, are alive beyond those at
// time 0, before any rank ran: for rbIO the writers, one rank in 64, nf=1
// (rbio1) as nf=ng; for coIO group rank 0 and the aggregators, which
// borrow a phase for the create, the header and each field's commit and
// keep it, one rank in 32 for coio1 (nf=1) and one in 8 for coio (64:1).
//
// 1PFPP's ranks borrow a coroutine for each strategy call, and keep it.
// At every collection the runtime sets the starting stack of new
// goroutines to the average stack in use it scanned plus a 928-byte
// guard, rounded up to a power of two, and an exiting goroutine keeps its
// stack on the runtime's free list when that stack has the starting size.
// In the first collective each must scan at most 1 KB per goroutine and
// leave the start at 2 KB. In the checkpoint 1PFPP's ranks wait in their
// own file's create and writes under onePlan.Write and writeFile; that
// depth is pinned so it can only fall.
func TestRankStackBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("np=4096 simulations")
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("the race detector's instrumented frames are deeper")
			}
		}
	}
	const np, budget, start = 4096, 1024, 2048
	for _, tc := range []struct {
		ckpt       string
		ckptBudget uint64 // bytes scanned per goroutine in the checkpoint; 0 = unchecked
		alive      uint64 // goroutines beyond time 0's; 0 = unchecked
	}{
		{"rbio", 0, np/64 + 8},
		{"rbio1", 0, np/64 + 8},
		{"coio1", 0, np/32 + 8},
		{"coio", 0, np/8 + 8},
		{"1pfpp", 1472, 0},
	} {
		d, err := ckpt.Lookup(tc.ckpt)
		if err != nil {
			t.Fatal(err)
		}
		j := Job{NP: np, Strategy: d.New(np)}
		run := func(at ...float64) (*nekcem.RunResult, []stackSample) {
			// The ranks start in stacks of the size the last collection
			// chose, which an earlier run may have left at 4 KB: collect
			// while no rank lives.
			runtime.GC()
			e, err := build(Options{Seed: 1, Parallel: 1}, scenario{NP: np, Job: j})
			if err != nil {
				t.Fatal(err)
			}
			var got []stackSample
			for _, when := range at {
				e.K.At(when, func() { got = append(got, collect()) })
			}
			res, err := e.solve(nekcem.PaperRun(np, j.Strategy, 1, 1))
			if err != nil {
				t.Fatal(err)
			}
			return res, got
		}
		// A first run times the checkpoint step. The second collects at
		// time 0, before any rank ran, just after, when every rank waits
		// in its first collective, and halfway to the first rank's return
		// from the step.
		res, _ := run()
		first := res.PerRank[0].Blocked
		for _, rc := range res.PerRank {
			first = min(first, rc.Blocked)
		}
		_, got := run(0, 1e-9, res.Checkpoints[0].Start+first/2)
		base := got[0]
		if base.start != start {
			t.Fatalf("%s: ranks spawned with %d B stacks, want %d", tc.ckpt, base.start, start)
		}
		for i, s := range got[1:] {
			at, limit := "first collective", uint64(budget)
			if i == 1 {
				at, limit = "checkpoint", tc.ckptBudget
			}
			alive := s.goroutines - base.goroutines
			t.Logf("%s %s: %d goroutines beyond time 0's, %d B scanned per goroutine, start stack %d B", tc.ckpt, at, alive, s.avg, s.start)
			if tc.alive > 0 && alive > tc.alive {
				t.Errorf("%s %s: %d goroutines beyond time 0's, want at most %d", tc.ckpt, at, alive, tc.alive)
			}
			if tc.alive > 0 {
				continue
			}
			if s.avg > limit {
				t.Errorf("%s %s: %d B scanned per goroutine, budget %d B", tc.ckpt, at, s.avg, limit)
			}
			if limit <= budget && s.start != start {
				t.Errorf("%s %s: starting stack size %d B, want %d", tc.ckpt, at, s.start, start)
			}
		}
	}
}
