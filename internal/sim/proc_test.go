package sim

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestProcSleepAdvancesTime(t *testing.T) {
	k := NewKernel()
	var wake float64
	k.Go("sleeper", func(p *Proc) {
		p.Sleep(2.5)
		wake = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if wake != 2.5 {
		t.Fatalf("woke at %v, want 2.5", wake)
	}
}

func TestProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		k := NewKernel()
		var order []string
		for i := 0; i < 5; i++ {
			name := fmt.Sprintf("p%d", i)
			d := float64(5 - i)
			k.Go(name, func(p *Proc) {
				p.Sleep(d)
				order = append(order, name)
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return order
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged: %v vs %v", a, b)
		}
	}
	// Shorter sleeps finish first.
	if a[0] != "p4" || a[4] != "p0" {
		t.Fatalf("wrong wake order: %v", a)
	}
}

func TestSignalWakesAllWaiters(t *testing.T) {
	k := NewKernel()
	var sig Signal
	woken := 0
	for i := 0; i < 10; i++ {
		k.Go(fmt.Sprintf("w%d", i), func(p *Proc) {
			sig.Wait(p)
			woken++
			if p.Now() != 7 {
				t.Errorf("waiter woke at %v, want 7", p.Now())
			}
		})
	}
	k.At(7, func() { sig.Fire() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if woken != 10 {
		t.Fatalf("woken %d, want 10", woken)
	}
}

func TestSignalAlreadyFired(t *testing.T) {
	k := NewKernel()
	var sig Signal
	sig.Fire()
	ran := false
	k.Go("late", func(p *Proc) {
		sig.Wait(p) // must not block
		ran = true
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("waiter on fired signal never ran")
	}
}

// TestSignalEnlistRunsContinuationInWakeSlot checks Signal.Enlist: Fire's
// wake of a process enlisted with a continuation in effect runs that
// continuation in the wake's slot, ahead of an event scheduled after Fire
// at the same instant, and Enlist on a fired signal panics.
func TestSignalEnlistRunsContinuationInWakeSlot(t *testing.T) {
	k := NewKernel()
	var sig Signal
	var log []string
	k.Go("a", func(p *Proc) {
		sig.Enlist(p)
		p.Await(&countCont{p: p, log: &log, left: 1})
		log = append(log, fmt.Sprintf("a resumed at %v", p.Now()))
	})
	k.At(7, func() {
		sig.Fire()
		k.At(7, func() { log = append(log, "later at 7") })
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(log, "\n"), "wake at 7\na resumed at 7\nlater at 7"; got != want {
		t.Fatalf("log\n%s\nwant\n%s", got, want)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Enlist on a fired signal did not panic")
		}
	}()
	sig.Enlist(nil)
}

func TestDeadlockDetected(t *testing.T) {
	k := NewKernel()
	var sig Signal
	k.Go("stuck", func(p *Proc) { sig.Wait(p) })
	err := k.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("expected DeadlockError, got %v", err)
	}
	if len(de.Procs) != 1 || de.Procs[0] != "stuck" {
		t.Fatalf("wrong deadlock report: %v", de.Procs)
	}
}

func TestResourceSerializesFIFO(t *testing.T) {
	k := NewKernel()
	res := NewResource(1)
	var order []int
	var ends []float64
	for i := 0; i < 4; i++ {
		i := i
		k.Go(fmt.Sprintf("c%d", i), func(p *Proc) {
			p.Sleep(float64(i) * 0.001) // stagger arrivals so FIFO order is i
			res.Acquire(p)
			p.Sleep(1)
			res.Release()
			order = append(order, i)
			ends = append(ends, p.Now())
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range order {
		if order[i] != i {
			t.Fatalf("non-FIFO service order: %v", order)
		}
	}
	// Unit-capacity resource with 1s service: completions ~1s apart.
	for i := 1; i < len(ends); i++ {
		gap := ends[i] - ends[i-1]
		if gap < 0.99 || gap > 1.01 {
			t.Fatalf("completion gap %v, want ~1s: %v", gap, ends)
		}
	}
}

func TestResourceCapacityParallelism(t *testing.T) {
	k := NewKernel()
	res := NewResource(3)
	var finish []float64
	maxQueue := 0
	for i := 0; i < 6; i++ {
		k.Go(fmt.Sprintf("c%d", i), func(p *Proc) {
			res.Acquire(p)
			p.Sleep(1)
			maxQueue = max(maxQueue, res.QueueLen())
			res.Release()
			finish = append(finish, p.Now())
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Two waves of 3: finish times 1,1,1,2,2,2.
	want := []float64{1, 1, 1, 2, 2, 2}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finish times %v, want %v", finish, want)
		}
	}
	if res.InUse() != 0 {
		t.Fatalf("resource still in use: %d", res.InUse())
	}
	if maxQueue != 3 {
		t.Fatalf("max queue %d, want 3", maxQueue)
	}
}

func TestReleaseIdleResourcePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Release of idle resource did not panic")
		}
	}()
	NewResource(1).Release()
}

// TestYieldLetsSameTimeEventsRun: a zero Sleep yields, so other events at
// the current instant run before the process continues.
func TestYieldLetsSameTimeEventsRun(t *testing.T) {
	k := NewKernel()
	var order []string
	k.Go("a", func(p *Proc) {
		order = append(order, "a1")
		p.Sleep(0)
		order = append(order, "a2")
	})
	k.Go("b", func(p *Proc) {
		order = append(order, "b")
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a1", "b", "a2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

func TestManyProcs(t *testing.T) {
	// Smoke test that process count in the tens of thousands works; this is
	// the scale the Blue Gene model runs at.
	k := NewKernel()
	const n = 20000
	done := 0
	for i := 0; i < n; i++ {
		k.Go(fmt.Sprintf("r%d", i), func(p *Proc) {
			p.Sleep(1)
			p.Sleep(1)
			done++
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if done != n {
		t.Fatalf("done %d, want %d", done, n)
	}
}

func TestSleepUntilPastIsNoop(t *testing.T) {
	k := NewKernel()
	k.Go("p", func(p *Proc) {
		p.Sleep(5)
		p.SleepUntil(3) // already past
		if p.Now() != 5 {
			t.Errorf("SleepUntil moved clock to %v", p.Now())
		}
		p.SleepUntil(8)
		if p.Now() != 8 {
			t.Errorf("SleepUntil(8) ended at %v", p.Now())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// explodeInHelper is the panicking frame TestProcPanicKeepsOrigin looks for.
func explodeInHelper(v any) { panic(v) }

// runRecovering runs k and returns what its Run panicked with, if anything.
func runRecovering(k *Kernel) (got any) {
	defer func() { got = recover() }()
	k.Run()
	return nil
}

// TestProcPanicKeepsOrigin pins that a process panic reaches the Run caller
// carrying the panic value, the process name and the stack it panicked on:
// the coroutine re-raises it in the driver, where that stack is gone.
func TestProcPanicKeepsOrigin(t *testing.T) {
	k := NewKernel()
	k.Go("bomber", func(p *Proc) {
		p.Sleep(1)
		explodeInHelper("helper exploded")
	})
	msg := fmt.Sprint(runRecovering(k))
	for _, want := range []string{"helper exploded", "bomber", "explodeInHelper"} {
		if !strings.Contains(msg, want) {
			t.Errorf("panic message lacks %q:\n%s", want, msg)
		}
	}

	// An error value stays reachable through errors.Is.
	sentinel := errors.New("sentinel")
	k = NewKernel()
	k.Go("erring", func(p *Proc) { explodeInHelper(sentinel) })
	if err, _ := runRecovering(k).(error); !errors.Is(err, sentinel) {
		t.Errorf("recovered %v, want an error wrapping the sentinel", err)
	}
}

// TestHookAcrossSleepRunsOnDriver runs a process that sleeps across a hook
// on the serial kernel, a partition lane and the exclusive lane. The hook
// runs on the driver's stack, not the sleeping process's, so its panic
// reaches Run's caller as itself, not wrapped as the process's. Woken is
// exact: when the hook wakes nobody, the sleeper's own resume is the next
// one due and is no wake; when the hook wakes the parked process, the
// sleeper's resume after it is one.
func TestHookAcrossSleepRunsOnDriver(t *testing.T) {
	cases := []struct {
		name      string
		wake      bool // the hook, not the sleeper after its sleep, unparks the parked process
		boom      bool // the hook panics
		woken     uint64
		wantPanic any
	}{
		// Both spawns and the parked process's wake.
		{name: "quiet", woken: 3},
		// Those three, and the sleeper's resume after the parked process.
		{name: "wakes", wake: true, woken: 4},
		{name: "panics", boom: true, wantPanic: "hook boom"},
	}
	for _, tc := range cases {
		for _, mode := range []string{"serial", "lane", "exclusive"} {
			k := NewKernel()
			spawn := k.Go
			if mode != "serial" {
				// A lookahead past the run keeps the lane's events in one
				// window, under one drive.
				k.EnableSharding(2, 1, 10, 1)
			}
			if mode == "lane" {
				spawn = func(name string, fn func(p *Proc)) *Proc { return k.GoPart(0, name, fn) }
			}
			parked := spawn("parked", func(p *Proc) { p.Park() })
			spawn("innocent", func(p *Proc) {
				p.Kernel().AfterHookCtx(p, 0.5, funcHook(func() {
					if tc.boom {
						panic("hook boom")
					}
					if tc.wake {
						parked.Unpark()
					}
				}))
				p.Sleep(1)
				if !tc.wake {
					parked.Unpark()
				}
			})
			if got := runRecovering(k); got != tc.wantPanic {
				t.Errorf("%s/%s: Run panicked with %v, want %v", tc.name, mode, got, tc.wantPanic)
				continue
			}
			if w := k.Woken(); tc.wantPanic == nil && w != tc.woken {
				t.Errorf("%s/%s: %d resumes counted as woken, want %d", tc.name, mode, w, tc.woken)
			}
		}
	}
}

// TestProcGoexitPassesThrough pins that runtime.Goexit in a process (what
// t.FailNow does) ends the driving goroutine rather than turning into a
// panic.
func TestProcGoexitPassesThrough(t *testing.T) {
	k := NewKernel()
	k.Go("quitter", func(p *Proc) {
		p.Sleep(1)
		runtime.Goexit()
	})
	var returned bool
	var recovered any
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer func() { recovered = recover() }()
		k.Run()
		returned = true
	}()
	<-done
	if returned || recovered != nil {
		t.Fatalf("Run returned=%v, recovered %v; want the goroutine to exit", returned, recovered)
	}
}

type finalized struct{ buf [64]byte }

// spawnHolder spawns a process whose body captures a finalized object and
// closes collected once that object is garbage collected.
func spawnHolder(k *Kernel, collected chan struct{}) {
	obj := &finalized{}
	runtime.SetFinalizer(obj, func(*finalized) { close(collected) })
	k.Go("holder", func(p *Proc) {
		p.Sleep(1)
		obj.buf[0]++
	})
}

// TestFinishedProcReleasesBody pins that a finished process's body is
// dropped: the kernel keeps every *Proc for deadlock reports, and under the
// race detector its coroutine lives on, idle, to run another process, so
// either holding the body would pin everything it captured.
func TestFinishedProcReleasesBody(t *testing.T) {
	k := NewKernel()
	collected := make(chan struct{})
	spawnHolder(k, collected)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		runtime.GC()
		select {
		case <-collected:
			runtime.KeepAlive(k)
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	runtime.KeepAlive(k)
	t.Fatal("a finished process still pins its body's captures")
}

// countCont lets its process wait through n wakes, logging each one, and
// resumes it at the last.
type countCont struct {
	p    *Proc
	log  *[]string
	left int
}

func (c *countCont) Continue() bool {
	*c.log = append(*c.log, fmt.Sprintf("wake at %v", c.p.Now()))
	c.left--
	return c.left == 0
}

// TestAwaitRunsContinuationInResumeSlot pins the continuation contract: a
// process awaiting a continuation through three wakes logs exactly what a
// process parking three times logs — each wake in its own resume's slot,
// behind an event scheduled earlier at the same instant and ahead of one
// scheduled later — and is switched to once instead of three times. It
// holds on the serial kernel, on a partition lane and on the exclusive
// lane.
func TestAwaitRunsContinuationInResumeSlot(t *testing.T) {
	run := func(mode string, await bool) (string, uint64) {
		k := NewKernel()
		spawn := k.Go
		if mode != "serial" {
			k.EnableSharding(2, 1, 1e-6, 1)
		}
		if mode == "lane" {
			spawn = func(name string, fn func(p *Proc)) *Proc { return k.GoPart(0, name, fn) }
		}
		var log []string
		a := spawn("a", func(p *Proc) {
			if await {
				p.Await(&countCont{p: p, log: &log, left: 3})
			} else {
				for i := 0; i < 3; i++ {
					p.Park()
					log = append(log, fmt.Sprintf("wake at %v", p.Now()))
				}
			}
			log = append(log, fmt.Sprintf("a resumed at %v", p.Now()))
		})
		spawn("early", func(p *Proc) {
			p.Sleep(3)
			log = append(log, "early at 3")
		})
		spawn("waker", func(p *Proc) {
			for i := 1; i <= 3; i++ {
				p.SleepUntil(float64(i))
				a.Unpark()
			}
			p.Sleep(0)
			log = append(log, "late at 3")
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return strings.Join(log, "\n"), k.Woken()
	}
	const want = "wake at 1\nwake at 2\nearly at 3\nwake at 3\na resumed at 3\nlate at 3"
	for _, mode := range []string{"serial", "lane", "exclusive"} {
		parkLog, parkWoken := run(mode, false)
		awaitLog, awaitWoken := run(mode, true)
		if parkLog != want || awaitLog != want {
			t.Errorf("%s: log\n%s\nwith Park, and\n%s\nwith Await; want\n%s", mode, parkLog, awaitLog, want)
		}
		// a's two intermediate resumes are gone. A waker whose own Sleep
		// dispatched a's wake may keep the baton too, so the saving can be
		// larger.
		if awaitWoken+2 > parkWoken {
			t.Errorf("%s: %d resumes with Await, %d with Park; want at least two fewer", mode, awaitWoken, parkWoken)
		}
	}
}
