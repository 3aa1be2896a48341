package sim

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
)

// shardScript runs a small partitioned model — per-partition workers that
// sleep, periodically enter a shared section that appends to a global log,
// and from a shared section wake a parked sink process of the neighbor
// partition, beside an exclusive-lane ticker that logs on a fixed beat —
// and returns the observable history and the dispatch counters. Both must
// be identical for any worker count and GOMAXPROCS. With tied set the
// workers keep the ticker's beat, so heads of different partitions and of
// the exclusive lane meet at equal times and only genealogy orders them;
// workers == 0 then runs the script on the serial kernel, the reference
// order. A tied partition also runs more workers than a calendar block
// holds, so every beat is a same-time wave spanning two blocks of its
// calendar, which re-roots re-stamp in place.
func shardScript(t *testing.T, nparts, workers int, tied bool) (string, ShardStats, float64) {
	t.Helper()
	k := NewKernel()
	const lookahead = 1e-6
	if workers > 0 {
		k.EnableSharding(nparts, workers, lookahead, 42)
	}
	var log []string
	record := func(p *Proc, what string) {
		p.EnterShared()
		log = append(log, fmt.Sprintf("%.9f %s %s", p.Now(), p.name, what))
		p.ExitShared()
	}
	// Each partition's sink parks on its lane until worker 0 of the
	// previous partition wakes it from a shared section: a cross-partition
	// insert made by the exclusive lane. The wake lands one lookahead
	// later, past every lane clock of the window the section suspended
	// from, and only once the previous wake has run (the sink has parked
	// again); lastWake and stop are touched from shared sections and by
	// the woken sink only.
	sinks := make([]*Proc, nparts)
	lastWake := make([]float64, nparts)
	stop := make([]bool, nparts)
	wake := func(p *Proc, dst int, last bool) {
		if d := lastWake[dst] + 2*lookahead - p.Now(); d > 0 {
			p.Sleep(d)
		}
		lastWake[dst], stop[dst] = p.Now(), last
		sinks[dst].UnparkAfter(lookahead)
	}
	for part := 0; part < nparts; part++ {
		part := part
		lastWake[part] = math.Inf(-1)
		sinks[part] = k.GoPart(part, fmt.Sprintf("p%d.sink", part), func(p *Proc) {
			for {
				p.Park()
				record(p, "woken")
				if stop[part] {
					return
				}
			}
		})
	}
	for part := 0; part < nparts; part++ {
		part := part
		if part == nparts/2 {
			// Spawned between partitions, so equal-time ties put some
			// workers before the ticker in the serial order and some after.
			k.Go("ticker", func(p *Proc) {
				for i := 0; i < 20; i++ {
					p.Sleep(3e-7)
					log = append(log, fmt.Sprintf("%.9f ticker %d", p.Now(), i))
				}
			})
		}
		perPart := 3
		if tied {
			perPart = calBlockLen + 6
		}
		for w := 0; w < perPart; w++ {
			w := w
			k.GoPart(part, fmt.Sprintf("p%d.w%d", part, w), func(p *Proc) {
				pause := func() float64 { return 3e-7 }
				if !tied {
					rng := k.PartRNG(part)
					pause = func() float64 { return rng.Exp(3e-7) }
				}
				for i := 0; i < 20; i++ {
					p.Sleep(pause())
					if i%5 == w%5 {
						record(p, fmt.Sprintf("iter%d", i))
					}
					if w == 0 && i%7 == 0 {
						p.EnterShared()
						wake(p, (part+1)%nparts, false)
						p.ExitShared()
					}
				}
				if w == 0 {
					p.EnterShared()
					wake(p, (part+1)%nparts, true)
					p.ExitShared()
				}
			})
		}
	}
	if err := k.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	st, ok := k.ShardStats()
	if workers > 0 {
		if !ok || st.LaneEvents+st.ExclusiveEvents != k.Events() {
			t.Fatalf("shard stats %+v (ok %v) do not cover %d events", st, ok, k.Events())
		}
		if st.Suspensions == 0 || st.ParallelWindows == 0 {
			t.Fatalf("script exercised no suspension or parallel window: %+v", st)
		}
	}
	history := strings.Join(log, "\n")
	if n := strings.Count(history, "woken"); n != 4*nparts {
		t.Fatalf("sinks woken %d times, want %d", n, 4*nparts)
	}
	return history, st, k.Now()
}

func TestShardedDeterministicAcrossWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, tied := range []bool{false, true} {
		base, baseStats, baseNow := shardScript(t, 5, 1, tied)
		if base == "" {
			t.Fatal("script produced no history")
		}
		if tied {
			if ref, _, refNow := shardScript(t, 5, 0, true); base != ref || baseNow != refNow {
				t.Fatalf("tied history diverged from the serial kernel:\n%s\nvs serial\n%s", base, ref)
			}
		}
		for _, workers := range []int{2, 4, 8} {
			got, gotStats, gotNow := shardScript(t, 5, workers, tied)
			if got != base {
				t.Fatalf("tied=%v workers=%d history diverged from workers=1", tied, workers)
			}
			if gotStats != baseStats || gotNow != baseNow {
				t.Fatalf("tied=%v workers=%d stats diverged: %+v vs %+v, now %v vs %v",
					tied, workers, gotStats, baseStats, gotNow, baseNow)
			}
		}
		// And independent of GOMAXPROCS.
		prev := runtime.GOMAXPROCS(1)
		got, gotStats, _ := shardScript(t, 5, 4, tied)
		runtime.GOMAXPROCS(prev)
		if got != base || gotStats != baseStats {
			t.Fatalf("tied=%v GOMAXPROCS=1 history diverged", tied)
		}
	}
}

// TestShardedNowOffLane pins Proc.Now off the lane: a process woken inside
// a shared section reads the exclusive clock, although the window that
// suspended its waker let the process's own partition run up to a
// lookahead past the wake.
func TestShardedNowOffLane(t *testing.T) {
	run := func(workers int) string {
		k := NewKernel()
		if workers > 0 {
			k.EnableSharding(2, workers, 1e-6, 1)
		}
		var log []string
		waiter := k.GoPart(0, "waiter", func(p *Proc) {
			p.EnterShared()
			p.Park()
			log = append(log, fmt.Sprintf("woken %.9f", p.Now()))
			p.Sleep(2e-6)
			p.ExitShared()
			log = append(log, fmt.Sprintf("left %.9f", p.Now()))
		})
		k.GoPart(0, "busy", func(p *Proc) {
			for i := 0; i < 100; i++ {
				p.Sleep(1e-7)
			}
		})
		k.GoPart(1, "waker", func(p *Proc) {
			p.Sleep(5e-6)
			p.EnterShared()
			waiter.Unpark()
			p.ExitShared()
		})
		if err := k.Run(); err != nil {
			t.Fatalf("workers=%d: run: %v", workers, err)
		}
		return strings.Join(log, "\n")
	}
	ref := run(0)
	for _, workers := range []int{1, 2} {
		if got := run(workers); got != ref {
			t.Fatalf("workers=%d:\n%s\nvs serial\n%s", workers, got, ref)
		}
	}
}

// TestShardedSharedSectionOrder pins the exclusive lane's global ordering:
// shared sections from different partitions must interleave in strict
// (t, partition, local seq) key order even when lanes run concurrently.
func TestShardedSharedSectionOrder(t *testing.T) {
	k := NewKernel()
	k.EnableSharding(4, 4, 1e-6, 7)
	var order []float64
	for part := 0; part < 4; part++ {
		part := part
		k.GoPart(part, fmt.Sprintf("p%d", part), func(p *Proc) {
			for i := 0; i < 50; i++ {
				p.Sleep(1e-7 * float64(part+1))
				p.EnterShared()
				order = append(order, p.Now())
				p.ExitShared()
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(order) != 200 {
		t.Fatalf("expected 200 sections, got %d", len(order))
	}
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			t.Fatalf("shared sections out of time order at %d: %v after %v",
				i, order[i], order[i-1])
		}
	}
}

// TestShardedCrossPartitionWakeNeedsSharedSection pins the lane guard: a
// lane process waking a process of another partition outside a shared
// section panics — that partition's lane may already be past the wake-up
// time — and leaves the target parked; the same wake from a shared section
// runs on the exclusive lane and lands in the target's partition. A busy
// third partition shares the waker's windows, so with two workers the
// guard fires inside a parallel window too.
func TestShardedCrossPartitionWakeNeedsSharedSection(t *testing.T) {
	for _, workers := range []int{1, 2} {
		k := NewKernel()
		k.EnableSharding(3, workers, 1e-6, 1)
		var wokeAt float64
		sleeper := k.GoPart(1, "sleeper", func(p *Proc) {
			p.Park()
			wokeAt = p.Now()
		})
		k.GoPart(2, "busy", func(p *Proc) {
			for i := 0; i < 200; i++ {
				p.Sleep(1e-7)
			}
		})
		var refused any
		k.GoPart(0, "waker", func(p *Proc) {
			p.Sleep(1e-5) // windows later than the sleeper's Park
			func() {
				defer func() { refused = recover() }()
				sleeper.Unpark()
			}()
			p.EnterShared()
			sleeper.Unpark()
			p.ExitShared()
		})
		if err := k.Run(); err != nil {
			t.Fatalf("workers=%d: run: %v", workers, err)
		}
		if msg, _ := refused.(string); !strings.Contains(msg, "shared section") {
			t.Errorf("workers=%d: lane wake into partition 1 gave %v, want the shared-section panic", workers, refused)
		}
		if wokeAt != 1e-5 {
			t.Errorf("workers=%d: sleeper woke at %v, want 1e-5 from the shared section", workers, wokeAt)
		}
	}
}

// TestShardedDeadlockAggregation pins the satellite requirement: the
// deadlock report must aggregate parked processes across all partitions
// and name each one's partition.
func TestShardedDeadlockAggregation(t *testing.T) {
	k := NewKernel()
	k.EnableSharding(3, 2, 1e-6, 1)
	for part := 0; part < 3; part++ {
		part := part
		k.GoPart(part, fmt.Sprintf("stuck.%d", part), func(p *Proc) {
			p.Sleep(1e-7 * float64(part+1))
			p.Park()
		})
	}
	k.Go("stuck.shared", func(p *Proc) {
		p.Sleep(1e-9)
		p.Park()
	})
	err := k.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("expected DeadlockError, got %v", err)
	}
	if len(dl.Procs) != 4 || len(dl.Parts) != 4 {
		t.Fatalf("expected 4 parked across partitions, got procs=%v parts=%v", dl.Procs, dl.Parts)
	}
	want := map[string]int{"stuck.0": 0, "stuck.1": 1, "stuck.2": 2, "stuck.shared": -1}
	for i, name := range dl.Procs {
		if dl.Parts[i] != want[name] {
			t.Errorf("%s attributed to partition %d, want %d", name, dl.Parts[i], want[name])
		}
	}
	if !strings.Contains(dl.Error(), "[part 0]") {
		t.Errorf("error should name the partition: %q", dl.Error())
	}
}

// TestShardedRunUntil pins horizon semantics: events at the horizon run,
// later ones stay, and every clock lands on the horizon.
func TestShardedRunUntil(t *testing.T) {
	k := NewKernel()
	k.EnableSharding(2, 2, 1e-6, 1)
	var hits []float64
	procs := make([]*Proc, 2)
	for part := range procs {
		procs[part] = k.GoPart(part, fmt.Sprintf("p%d", part), func(p *Proc) {
			for i := 0; i < 10; i++ {
				p.Sleep(1.0)
				p.EnterShared()
				hits = append(hits, p.Now())
				p.ExitShared()
			}
		})
	}
	k.RunUntil(3.0)
	if len(hits) != 6 {
		t.Fatalf("expected 6 section hits by t=3, got %d (%v)", len(hits), hits)
	}
	if k.Now() != 3.0 {
		t.Fatalf("clock should rest at the horizon, got %v", k.Now())
	}
	for part, p := range procs {
		if p.Now() != 3.0 {
			t.Fatalf("partition %d clock %v, want 3.0", part, p.Now())
		}
	}
	k.RunUntil(20.0)
	if len(hits) != 20 {
		t.Fatalf("expected all 20 section hits, got %d", len(hits))
	}
}

// TestSerialUnaffected pins that a serial kernel reports no sharding and
// partition-aware APIs degrade to their serial equivalents.
func TestSerialUnaffected(t *testing.T) {
	k := NewKernel()
	if _, ok := k.ShardStats(); k.Sharded() || ok || k.NumPartitions() != 0 {
		t.Fatal("serial kernel claims sharded state")
	}
	done := false
	k.GoPart(5, "serial", func(p *Proc) {
		p.EnterShared()
		p.Sleep(4)
		p.ExitShared()
		if p.Part() != -1 {
			t.Error("serial proc should report part -1")
		}
		done = true
	})
	if err := k.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !done {
		t.Fatal("serial GoPart process did not run")
	}
	if k.Now() != 4 {
		t.Fatalf("now=%v, want 4", k.Now())
	}
}

// TestShardedLanePanicReachesRun pins that a process panic on a lane
// reaches Run's caller whichever worker ran the lane: odd partitions panic
// in the same window, a few windows in, once the helpers are polling, and
// every worker count re-raises partition 1's panic, the one a one-worker
// run meets first. Repeated so that helpers run panicking lanes too.
func TestShardedLanePanicReachesRun(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, workers := range []int{1, 2, 4} {
		for rep := 0; rep < 20; rep++ {
			k := NewKernel()
			k.EnableSharding(8, workers, 1e-6, 1)
			for part := 0; part < 8; part++ {
				part := part
				k.GoPart(part, fmt.Sprintf("p%d", part), func(p *Proc) {
					for i := 0; i < 25; i++ {
						p.Sleep(1e-7)
					}
					if part%2 == 1 {
						panic(fmt.Sprintf("boom %d", part))
					}
					p.Sleep(1e-7)
				})
			}
			got, ok := runRecovering(k).(*procPanic)
			if !ok || got.name != "p1" || got.value != "boom 1" {
				t.Fatalf("workers=%d: Run panicked with %v, want p1's panic", workers, got)
			}
			if st, _ := k.ShardStats(); workers > 1 && st.ParallelWindows == 0 {
				t.Fatalf("workers=%d: no parallel window: %+v", workers, st)
			}
		}
	}
}

// lifecycleScript runs two busy processes per partition on eight
// partitions in five RunUntil slices and returns their shared-section
// history and dispatch counters, the most helper goroutines seen from a
// shared section, and how often helpers parked. After each slice it
// requires the goroutine count back at its value before the first plus
// the processes' coroutines.
func lifecycleScript(t *testing.T, workers int) (history string, st ShardStats, helpers int, parks uint64) {
	t.Helper()
	k := NewKernel()
	k.EnableSharding(8, workers, 1e-6, 3)
	var log []string
	// Every process borrows a coroutine at its start and keeps it to its
	// end, past the last slice: a new goroutine, or under the race
	// detector an idle one while any is left.
	fresh := 16
	if raceEnabled {
		idleCoroutines.Lock()
		fresh -= min(fresh, len(idleCoroutines.list))
		idleCoroutines.Unlock()
	}
	base := runtime.NumGoroutine() + fresh
	for part := 0; part < 8; part++ {
		rng := k.PartRNG(part)
		for w := 0; w < 2; w++ {
			k.GoPart(part, fmt.Sprintf("p%d.w%d", part, w), func(p *Proc) {
				for i := 0; i < 400; i++ {
					p.Sleep(rng.Exp(2e-7))
					if i%9 == w {
						p.EnterShared()
						log = append(log, fmt.Sprintf("%.9f %s %d", p.Now(), p.name, i))
						helpers = max(helpers, runtime.NumGoroutine()-base)
						p.ExitShared()
					}
				}
			})
		}
	}
	for i := 1; i <= 5; i++ {
		k.RunUntil(float64(i) * 1e-5)
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > base {
			t.Fatalf("workers=%d: %d goroutines after RunUntil %d, want %d", workers, n, i, base)
		}
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	st, _ = k.ShardStats()
	if st.ParallelWindows == 0 {
		t.Fatalf("workers=%d: no parallel window: %+v", workers, st)
	}
	return strings.Join(log, "\n"), st, helpers, k.sh.crew.parks.Load()
}

// TestShardedHandoffLifecycle pins the window handoff's lifecycle: a run
// spawns min(workers, GOMAXPROCS)-1 helpers, and none outlives its
// RunUntil. Under GOMAXPROCS=1 no helper exists, so nothing polls; with
// the poll budget at zero every helper wait takes the park path. Every
// history matches the one-worker run's.
func TestShardedHandoffLifecycle(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	ref, refStats, _, _ := lifecycleScript(t, 1)
	for _, c := range []struct {
		name                  string
		procs, workers, polls int
		wantHelpers           int
	}{
		{"polling", 4, 4, helperPolls, 3},
		{"capped by GOMAXPROCS", 2, 8, helperPolls, 1},
		{"GOMAXPROCS=1", 1, 4, helperPolls, 0},
		{"park only", 4, 4, 0, 3},
	} {
		runtime.GOMAXPROCS(c.procs)
		prev := helperPolls
		helperPolls = c.polls
		got, gotStats, helpers, parks := lifecycleScript(t, c.workers)
		helperPolls = prev
		if got != ref || gotStats != refStats {
			t.Fatalf("%s: history or stats diverged from workers=1: %+v vs %+v", c.name, gotStats, refStats)
		}
		if helpers != c.wantHelpers {
			t.Errorf("%s: %d helpers during the run, want %d", c.name, helpers, c.wantHelpers)
		}
		if c.polls == 0 && parks == 0 {
			t.Errorf("%s: no helper parked", c.name)
		}
	}
}

// tracedScript runs a traced partitioned model whose partitions keep one
// beat, so events of different partitions, scheduled under different
// layers, tie at every step; now and then a worker sleeps in a shared
// section, under its own layer (whatever ran on the exclusive lane since
// it suspended) and then under storage. workers == 0 runs it on the serial
// kernel. It returns the attributed time per layer and the makespan.
func tracedScript(t *testing.T, nparts, workers int) ([trace.NumLayers]float64, float64) {
	t.Helper()
	k := NewKernel()
	if workers > 0 {
		k.EnableSharding(nparts, workers, 1e-6, 5)
	}
	rec := trace.NewRecorder()
	k.SetRecorder(rec)
	for part := 0; part < nparts; part++ {
		for w := 0; w < 2; w++ {
			lay := trace.Layer(1 + (part+2*w)%(int(trace.NumLayers)-1))
			k.GoPart(part, fmt.Sprintf("p%d.w%d", part, w), func(p *Proc) {
				k.SetLayer(lay)
				for i := 0; i < 400; i++ {
					p.Sleep(3e-7)
					if i%(5+part) == w {
						p.EnterShared()
						p.Sleep(1e-7)
						k.SetLayer(trace.LayerStorage)
						p.Sleep(1e-7)
						k.SetLayer(lay)
						p.ExitShared()
					}
				}
			})
		}
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	var lt [trace.NumLayers]float64
	for l := range lt {
		lt[l] = rec.LayerTime(trace.Layer(l))
	}
	return lt, k.Now()
}

// TestShardedAttributionMatchesSerial pins that a traced partitioned run
// charges simulated time to the layers the serial kernel charges it to,
// exactly: lanes run one at a time under the kernel's one current layer,
// a shared section resumes under the layer it suspended with, and the
// lanes' advance logs replay in serial dispatch order — also at timestamp
// ties across partitions and across origin-chain re-roots.
func TestShardedAttributionMatchesSerial(t *testing.T) {
	prev := chainRerootGoal
	defer func() { chainRerootGoal = prev }()
	ref, refNow := tracedScript(t, 4, 0)
	var sum float64
	for _, v := range ref {
		sum += v
	}
	if math.Abs(sum-refNow) > 1e-12 {
		t.Fatalf("serial attribution %v does not sum to the makespan %v", sum, refNow)
	}
	for _, goal := range []uint64{prev, 0, 8} {
		chainRerootGoal = goal
		for _, workers := range []int{1, 4} {
			if got, _ := tracedScript(t, 4, workers); got != ref {
				t.Errorf("goal=%d workers=%d: attribution %v, serial %v", goal, workers, got, ref)
			}
		}
	}
}

// TestShardedTracedRunsOneWorker pins when the one-worker rule for traced
// runs applies: at run start, so a recorder attached after EnableSharding
// still keeps every lane on the coordinator. Lanes write the recorder, so
// under -race a helper running one concurrently would be reported.
func TestShardedTracedRunsOneWorker(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	k := NewKernel()
	k.EnableSharding(4, 4, 1e-6, 9)
	rec := trace.NewRecorder()
	k.SetRecorder(rec)
	helpers := -1
	for part := 0; part < 4; part++ {
		k.GoPart(part, fmt.Sprintf("p%d", part), func(p *Proc) {
			for i := 0; i < 200; i++ {
				p.Sleep(1e-7)
				p.Rec().Add(trace.LayerKernel, "lane.steps", 1)
				if i%50 == 0 {
					p.EnterShared()
					helpers = max(helpers, len(k.sh.crew.helpers))
					p.ExitShared()
				}
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if helpers != 0 {
		t.Fatalf("traced run spawned %d helpers, want 0", helpers)
	}
	if st, _ := k.ShardStats(); st.ParallelWindows == 0 {
		t.Fatalf("no window had more than one lane: %+v", st)
	}
	if m := rec.Snapshot("", k.Now()); len(m.Counters) != 1 || m.Counters[0].Value != 800 {
		t.Fatalf("lane counter %+v, want 800", m.Counters)
	}
}
