package sim

import (
	"errors"
	"fmt"
	"slices"
	"testing"
)

// contFunc adapts a function to Cont.
type contFunc func() bool

func (f contFunc) Continue() bool { return f() }

// awaitKernel returns a kernel and a spawn for one of the three execution
// contexts a continuation can run in: the serial kernel, a partition lane
// and the partitioned kernel's exclusive lane.
func awaitKernel(mode string) (*Kernel, func(string, func(*Proc)) *Proc) {
	k := NewKernel()
	spawn := k.Go
	if mode != "serial" {
		// A lookahead past the run keeps the lane's events in one window,
		// under one drive.
		k.EnableSharding(2, 1, 10, 1)
	}
	if mode == "lane" {
		spawn = func(name string, fn func(p *Proc)) *Proc { return k.GoPart(0, name, fn) }
	}
	return k, spawn
}

// TestAwaitNow pins Proc.AwaitNow on the serial kernel, a partition lane
// and the exclusive lane. Its continuation runs on the driver, at once and
// on the state the process's own code would see:
//   - one that waits (UnparkAfter) gives the event times, the tie order,
//     the event count and the wakes of the process doing the same work
//     inline and then waiting in AwaitAfter;
//   - one that returns true costs no event and no wake;
//   - its panic reaches Run as itself, like a hook's;
//   - a process it leaves parked is reported as deadlocked.
func TestAwaitNow(t *testing.T) {
	for _, mode := range []string{"serial", "lane", "exclusive"} {
		// run spawns a worker that sleeps, does some work — log, schedule a
		// hook tied with its own resume — and waits 1 s, twice, beside a
		// bystander whose resume ties with the worker's wake. body does the
		// work and the wait in the worker's process.
		run := func(body func(p *Proc, work func())) (log []string, events, woken uint64) {
			k, spawn := awaitKernel(mode)
			note := func(what string, t float64) { log = append(log, fmt.Sprintf("%s@%g", what, t)) }
			spawn("worker", func(p *Proc) {
				for i := range 2 {
					p.Sleep(1)
					body(p, func() {
						note(fmt.Sprint("work", i), p.Now())
						k.AfterHookCtx(p, 1, funcHook(func() { note(fmt.Sprint("hook", i), p.Now()) }))
					})
					note(fmt.Sprint("back", i), p.Now())
				}
			})
			spawn("bystander", func(p *Proc) {
				p.Sleep(2)
				note("bystander", p.Now())
				p.Sleep(2)
				note("bystander", p.Now())
			})
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			return log, k.Events(), k.Woken()
		}
		inline := func(p *Proc, work func()) {
			work()
			p.AwaitAfter(1, contFunc(func() bool { return true }))
		}
		wantLog, wantEvents, wantWoken := run(inline)
		gotLog, gotEvents, gotWoken := run(func(p *Proc, work func()) {
			waited := false
			p.AwaitNow(contFunc(func() bool {
				if waited {
					return true
				}
				waited = true
				work()
				p.UnparkAfter(1)
				return false
			}))
		})
		if !slices.Equal(gotLog, wantLog) || gotEvents != wantEvents || gotWoken != wantWoken {
			t.Errorf("%s: waiting continuation: %v, %d events, %d woken; inline %v, %d events, %d woken",
				mode, gotLog, gotEvents, gotWoken, wantLog, wantEvents, wantWoken)
		}

		wantLog, wantEvents, wantWoken = run(func(p *Proc, work func()) { work() })
		gotLog, gotEvents, gotWoken = run(func(p *Proc, work func()) {
			p.AwaitNow(contFunc(func() bool { work(); return true }))
		})
		if !slices.Equal(gotLog, wantLog) || gotEvents != wantEvents || gotWoken != wantWoken {
			t.Errorf("%s: in-place continuation: %v, %d events, %d woken; inline %v, %d events, %d woken",
				mode, gotLog, gotEvents, gotWoken, wantLog, wantEvents, wantWoken)
		}

		k, spawn := awaitKernel(mode)
		spawn("bomber", func(p *Proc) {
			p.Sleep(1)
			p.AwaitNow(contFunc(func() bool { panic("cont boom") }))
		})
		if got := runRecovering(k); got != "cont boom" {
			t.Errorf("%s: Run panicked with %v, want the continuation's own panic", mode, got)
		}

		k, spawn = awaitKernel(mode)
		spawn("forgotten", func(p *Proc) {
			p.Sleep(1)
			p.AwaitNow(contFunc(func() bool { return false }))
		})
		var dl *DeadlockError
		if err := k.Run(); !errors.As(err, &dl) || !slices.Equal(dl.Procs, []string{"forgotten"}) {
			t.Errorf("%s: Run returned %v, want a deadlock of forgotten", mode, err)
		}
	}
}
