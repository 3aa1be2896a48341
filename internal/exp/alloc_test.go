package exp

import (
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/nekcem"
)

// heapAllocs reads the cumulative bytes and objects the process has
// allocated on the heap.
func heapAllocs() (bytes, objects uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// TestAllocBudget pins what a serial fig5 run of each arm at np=4096
// allocates: on runs that collect only a few times, allocation volume
// sets peak RSS. Each budget is the volume and object count measured when
// the storage path became continuations, plus 15%. That change took
// 1PFPP from 31.6 MB in 512K objects to 20.1 MB in 229K: its ranks no
// longer borrow coroutines, the block pipeline's per-block closures
// became hooks on a pooled per-call record, file ops are pooled, and
// files and handles create their maps when first used.
func TestAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("np=4096 simulations")
	}
	for _, tc := range []struct {
		ckpt           string
		bytes, objects float64 // measured
	}{
		{"1pfpp", 20.1e6, 229e3},
		{"coio1", 20.7e6, 192e3},
		{"coio", 20.0e6, 222e3},
		{"rbio1", 18.7e6, 115e3},
		{"rbio", 16.6e6, 111e3},
	} {
		t.Run(tc.ckpt, func(t *testing.T) {
			o := Options{Seed: 1, NPs: []int{4096}, Ckpt: tc.ckpt, Parallel: 1}
			b0, n0 := heapAllocs()
			if _, err := Headline(o); err != nil {
				t.Fatal(err)
			}
			b1, n1 := heapAllocs()
			bytes, objects := float64(b1-b0), float64(n1-n0)
			t.Logf("fig5 %s np=4096 allocated %.1f MB in %.0fK objects", tc.ckpt, bytes/1e6, objects/1e3)
			if bytes > 1.15*tc.bytes || objects > 1.15*tc.objects {
				t.Errorf("fig5 %s np=4096 allocated %.1f MB in %.0fK objects, budget %.1f MB in %.0fK",
					tc.ckpt, bytes/1e6, objects/1e3, 1.15*tc.bytes/1e6, 1.15*tc.objects/1e3)
			}
		})
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
// took coio1 to 398 and coio (64:1), 16,535 at its parent, to 1,453. The
// storage path as continuations (the file system's StartCreate,
// StartWriteAt, StartSync and StartClose) took 1pfpp from 7,483, coio1
// and coio to 0, and rbio to 24: no 1PFPP or coIO rank is ever woken, and
// an rbIO writer's phase only where it waits outside storage.
func TestResumeBudget(t *testing.T) {
	for _, tc := range []struct {
		ckpt          string
		events, woken int64
	}{
		{"coio1", 99384, 0},
		{"rbio", 35432, 24},
		{"coio", 100269, 0},
		{"1pfpp", 18810, 0},
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

// TestRankStackBudget pins which ranks hold a goroutine. A rank's body
// runs on the driver's stack and borrows a coroutine only for a phase
// that blocks (DESIGN §5), so the test collects twice on the serial
// kernel at np=4096, with every rank alive: while every rank waits in its
// first collective, and halfway to the first rank's return from the
// checkpoint step. At both it counts the goroutines alive beyond those at
// time 0, before any rank ran.
//
// Every strategy's Plan, rbIO's workers' hand-off, 1PFPP's and coIO's
// whole step and every file operation in them are continuations, so for
// 1PFPP and coIO (nf=1 and 64:1) no rank holds one: at most 8, the few
// other goroutines a run may start. rbIO's writers, one rank in 64, keep
// the phase they borrow for their write, nf=1 (rbio1) as nf=ng.
func TestRankStackBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("np=4096 simulations")
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("race-enabled builds keep released coroutines for reuse")
			}
		}
	}
	const np, start = 4096, 2048
	for _, tc := range []struct {
		ckpt  string
		alive uint64 // goroutines beyond time 0's
	}{
		{"rbio", np/64 + 8},
		{"rbio1", np/64 + 8},
		{"coio1", 8},
		{"coio", 8},
		{"1pfpp", 8},
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
			at := "first collective"
			if i == 1 {
				at = "checkpoint"
			}
			alive := s.goroutines - base.goroutines
			t.Logf("%s %s: %d goroutines beyond time 0's, %d B scanned per goroutine, start stack %d B", tc.ckpt, at, alive, s.avg, s.start)
			if alive > tc.alive {
				t.Errorf("%s %s: %d goroutines beyond time 0's, want at most %d", tc.ckpt, at, alive, tc.alive)
			}
		}
	}
}
