package sim

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// shardScript runs a small partitioned model — per-partition workers that
// sleep, exchange mailbox posts with a neighbor partition, and
// periodically enter a shared section that appends to a global log, beside
// an exclusive-lane ticker that logs on a fixed beat — and returns the
// observable history and the dispatch counters. Both must be identical for
// any worker count and GOMAXPROCS. With tied set the workers keep the
// ticker's beat, so heads of different partitions and of the exclusive
// lane meet at equal times and only genealogy orders them; workers == 0
// then runs the script on the serial kernel, the reference order.
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
		log = append(log, fmt.Sprintf("%.9f %s %s", p.Now(), p.Name(), what))
		p.ExitShared()
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
		for w := 0; w < 3; w++ {
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
						// Cross-partition mailbox: fires on the neighbor's
						// lane at least one lookahead in the future.
						dst := (part + 1) % nparts
						at := p.Now() + lookahead + 1e-7
						k.Post(part, dst, at, funcHook(func() {}))
					}
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
	return strings.Join(log, "\n"), st, k.Now()
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

// TestShardedMailboxLookaheadViolation pins the CMB safety net: a
// cross-partition post closer than the lookahead must panic.
func TestShardedMailboxLookaheadViolation(t *testing.T) {
	k := NewKernel()
	k.EnableSharding(2, 2, 1e-6, 1)
	k.GoPart(0, "violator", func(p *Proc) {
		p.Sleep(1e-7)
		defer func() {
			if recover() == nil {
				t.Error("expected lookahead violation panic")
			}
			// The baton must still be released or Run hangs.
			p.EnterShared()
			p.ExitShared()
		}()
		k.Post(0, 1, p.Now()+1e-9, funcHook(func() {}))
	})
	k.GoPart(1, "peer", func(p *Proc) { p.Sleep(5e-7) })
	if err := k.Run(); err != nil {
		t.Fatalf("run: %v", err)
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
	for part := 0; part < 2; part++ {
		part := part
		k.GoPart(part, fmt.Sprintf("p%d", part), func(p *Proc) {
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
	for part := 0; part < 2; part++ {
		if k.PartNow(part) != 3.0 {
			t.Fatalf("partition %d clock %v, want 3.0", part, k.PartNow(part))
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
	if _, ok := k.ShardStats(); k.Sharded() || ok || k.NumPartitions() != 0 || k.Lookahead() != 0 {
		t.Fatal("serial kernel claims sharded state")
	}
	fired := 0
	k.AtHookPart(3, 1.0, funcHook(func() { fired++ }))
	k.AfterHookPart(9, 2.0, funcHook(func() { fired++ }))
	k.Post(1, 2, 3.0, funcHook(func() { fired++ }))
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
	if fired != 3 || !done {
		t.Fatalf("serial degradations broken: fired=%d done=%v", fired, done)
	}
	if k.Now() != 4 {
		t.Fatalf("now=%v, want 4", k.Now())
	}
}
