package sim

import (
	"errors"
	"fmt"
	"slices"
	"strings"
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

// stepBody is a body written as its steps, run in order until one
// reports that the body waits; the body ends after the last.
type stepBody struct{ steps []func() bool }

func (b *stepBody) Continue() bool {
	for len(b.steps) > 0 {
		step := b.steps[0]
		b.steps = b.steps[1:]
		if step() {
			return false
		}
	}
	return true
}

// TestBody pins a process that runs as a body, with no coroutine of its
// own, against a Go process doing the same work, on the serial kernel, a
// partition lane and the exclusive lane. The worker sleeps behind the
// bystander's start, on Sleep's fast path, and then past the bystander's
// event with a hook tied with its wake, awaits a signal, borrows a
// coroutine to acquire a resource the bystander holds and sleep while
// holding it, goes on in its body after the phase returned, and ends. The log, event times, tie order and Events() must
// match. Woken counts only the resumes its borrowed phase takes: the
// body's own turns run in their slots and are no wake. A body that waits
// on nothing is reported deadlocked, and a borrowed phase's panic keeps
// the process name and its stack.
func TestBody(t *testing.T) {
	for _, mode := range []string{"serial", "lane", "exclusive"} {
		// run spawns the worker, from spawn, beside the bystander.
		run := func(spawn func(k *Kernel, part int, sig *Signal, res *Resource, note func(string, *Proc))) (log []string, events, woken uint64) {
			k := NewKernel()
			part := -1
			if mode != "serial" {
				k.EnableSharding(2, 1, 10, 1)
			}
			if mode == "lane" {
				part = 0
			}
			note := func(what string, p *Proc) { log = append(log, fmt.Sprintf("%s@%g", what, p.Now())) }
			sig, res := &Signal{}, NewResource(1)
			spawn(k, part, sig, res, note)
			k.GoPart(part, "bystander", func(p *Proc) {
				p.Sleep(2)
				note("bystander", p)
				p.Sleep(1)
				res.Acquire(p)
				note("fire", p)
				sig.Fire()
				p.Sleep(1)
				note("release", p)
				res.Release()
			})
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			return log, k.Events(), k.Woken()
		}
		hook := func(k *Kernel, p *Proc, note func(string, *Proc)) {
			k.AfterHookCtx(p, 2, funcHook(func() { note("hook", p) }))
		}
		wantLog, wantEvents, wantWoken := run(func(k *Kernel, part int, sig *Signal, res *Resource, note func(string, *Proc)) {
			k.GoPart(part, "worker", func(p *Proc) {
				p.Sleep(0.5)
				p.Sleep(0.5)
				note("fast", p)
				hook(k, p, note)
				p.Sleep(2)
				note("slept", p)
				sig.Wait(p)
				note("signalled", p)
				res.Acquire(p)
				p.Sleep(1)
				res.Release()
				note("released", p)
			})
		})
		var p *Proc
		sleep := func(d float64) bool {
			if p.SleepFast(d) {
				return false
			}
			p.UnparkAfter(d)
			return true
		}
		gotLog, gotEvents, gotWoken := run(func(k *Kernel, part int, sig *Signal, res *Resource, note func(string, *Proc)) {
			b := &stepBody{}
			b.steps = []func() bool{
				func() bool { return sleep(0.5) }, // behind the bystander's start
				func() bool {
					if !p.SleepFast(0.5) {
						t.Errorf("%s: no fast path at %g", mode, p.Now())
					}
					note("fast", p)
					hook(k, p, note)
					return sleep(2)
				},
				func() bool {
					note("slept", p)
					sig.Enlist(p)
					return true
				},
				func() bool {
					note("signalled", p)
					p.Borrow(func(p *Proc) {
						res.Acquire(p)
						p.Sleep(1)
						res.Release()
					})
					return true
				},
				func() bool {
					note("released", p)
					return false
				},
			}
			p = k.Start(part, "worker", b)
		})
		if !slices.Equal(gotLog, wantLog) || gotEvents != wantEvents {
			t.Errorf("%s: body %v, %d events; Go process %v, %d events", mode, gotLog, gotEvents, wantLog, wantEvents)
		}
		// With the Go worker every resume of either process is a wake: the
		// worker's start, two sleeps', the signal's and the resource's,
		// and the bystander's start and three sleeps'. The body's turns run
		// in their slots, so only its phase's start and its resume from
		// the resource wait are wakes. They leave the bystander the last
		// process resumed, so its resumes at 2 and 3 follow its own yields
		// and are none.
		if wantWoken != 9 || gotWoken != 4 {
			t.Errorf("%s: woken %d with the body, %d with the Go process; want 4 and 9", mode, gotWoken, wantWoken)
		}
		if !p.done || p.co != nil || p.body != nil {
			t.Errorf("%s: ended body: done %v, coroutine %v, body %v", mode, p.done, p.co, p.body)
		}

		k, _ := awaitKernel(mode)
		part := -1
		if mode == "lane" {
			part = 0
		}
		k.Start(part, "forgotten", contFunc(func() bool { return false }))
		var dl *DeadlockError
		if err := k.Run(); !errors.As(err, &dl) || !slices.Equal(dl.Procs, []string{"forgotten"}) {
			t.Errorf("%s: Run returned %v, want a deadlock of forgotten", mode, err)
		}

		k, _ = awaitKernel(mode)
		var bomber *Proc
		bomber = k.Start(part, "bomber", contFunc(func() bool {
			bomber.Borrow(func(p *Proc) {
				p.Sleep(1)
				explodeInHelper("phase exploded")
			})
			return false
		}))
		msg := fmt.Sprint(runRecovering(k))
		for _, want := range []string{"phase exploded", "bomber", "explodeInHelper"} {
			if !strings.Contains(msg, want) {
				t.Errorf("%s: panic message lacks %q:\n%s", mode, want, msg)
			}
		}
	}
}

// TestNestedBorrowResumesBorrower pins the borrower of a phase across a
// borrow nested in it: a continuation the body awaits borrows a phase;
// the phase awaits (AwaitNow) a continuation that borrows again, whose
// function sleeps. When the nested function returns, its continuation
// goes on; when the outer phase returns, the outer continuation goes on,
// in that slot, before the body — on all three contexts.
func TestNestedBorrowResumesBorrower(t *testing.T) {
	for _, mode := range []string{"serial", "lane", "exclusive"} {
		k := NewKernel()
		part := -1
		if mode != "serial" {
			k.EnableSharding(2, 1, 10, 1)
		}
		if mode == "lane" {
			part = 0
		}
		var log []string
		note := func(what string, p *Proc) { log = append(log, fmt.Sprintf("%s@%g", what, p.Now())) }
		var p *Proc
		inner := 0
		innerCont := contFunc(func() bool {
			inner++
			if inner == 1 {
				p.Borrow(func(p *Proc) { p.Sleep(1); note("nested", p) })
				return false
			}
			note("inner done", p)
			return true
		})
		outer := 0
		outerCont := contFunc(func() bool {
			outer++
			if outer == 1 {
				p.Borrow(func(p *Proc) {
					p.AwaitNow(innerCont)
					p.Sleep(1)
					note("phase", p)
				})
				return false
			}
			note("outer done", p)
			return true
		})
		started := false
		p = k.Start(part, "p", contFunc(func() bool {
			if !started {
				started = true
				if !p.Then(outerCont) {
					return false
				}
			}
			note("body", p)
			return true
		}))
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		want := []string{"nested@1", "inner done@1", "phase@2", "outer done@2", "body@2"}
		if !slices.Equal(log, want) {
			t.Errorf("%s: ran %q, want %q", mode, log, want)
		}
	}
}
