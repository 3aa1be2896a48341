package sim

import (
	"fmt"
	"testing"
)

// TestRunUntilAcrossBucketBoundaries steps the clock through horizons that
// fall between the calendar's pending events, checking that every event
// fires exactly once, in order, within the step that covers it.
func TestRunUntilAcrossBucketBoundaries(t *testing.T) {
	k := NewKernel()
	var fired []float64
	// Microsecond-spaced cluster plus far-out stragglers: the events spread
	// over radix buckets many bits apart.
	times := []float64{1e-6, 2e-6, 3e-6, 0.5, 0.500001, 2, 7, 7.000001, 40}
	for _, at := range times {
		at := at
		k.At(at, func() { fired = append(fired, at) })
	}
	for _, horizon := range []float64{1e-6, 0.5, 1, 7, 100} {
		before := len(fired)
		k.RunUntil(horizon)
		for _, f := range fired[before:] {
			if f > horizon {
				t.Fatalf("event at %v fired beyond horizon %v", f, horizon)
			}
		}
		if k.Now() != horizon {
			t.Fatalf("clock %v after RunUntil(%v)", k.Now(), horizon)
		}
	}
	if len(fired) != len(times) {
		t.Fatalf("fired %d of %d events", len(fired), len(times))
	}
	for i := 1; i < len(fired); i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("out of order: %v after %v", fired[i], fired[i-1])
		}
	}
}

// pooledHook records its firing order; the pooled analogue of the closure
// hooks in TestTieBreakBySchedulingOrder.
type pooledHook struct {
	id  int
	out *[]int
}

func (h *pooledHook) Fire() { *h.out = append(*h.out, h.id) }

// TestSameTimestampPooledHooks schedules a large batch of pooled hooks at one
// instant, interleaved with closure events and process resumes, and checks
// strict scheduling order — the tie-break contract under the allocation-free
// AtHook path.
func TestSameTimestampPooledHooks(t *testing.T) {
	k := NewKernel()
	var order []int
	const n = 1000
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			k.AtHook(1.0, &pooledHook{id: i, out: &order})
		} else {
			i := i
			k.At(1.0, func() { order = append(order, i) })
		}
	}
	// Processes sleeping until the same instant: their resumes are scheduled
	// when each first runs (at t=0, in spawn order), so they follow every
	// hook above and keep spawn order among themselves.
	const procs = 100
	for i := 0; i < procs; i++ {
		i := i
		k.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
			p.SleepUntil(1.0)
			order = append(order, n+i)
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != n+procs {
		t.Fatalf("got %d firings, want %d", len(order), n+procs)
	}
	for i, id := range order {
		if id != i {
			t.Fatalf("position %d: fired %d (scheduling order violated)", i, id)
		}
	}
}

// TestUnparkResumeAlreadyScheduledPanics checks that unparking a process
// whose resume is already scheduled — a double-wake bookkeeping bug — panics
// rather than corrupting the runnable-set invariant: the panicking Unpark
// changes nothing, so the run still ends cleanly.
func TestUnparkResumeAlreadyScheduledPanics(t *testing.T) {
	k := NewKernel()
	var target *Proc
	target = k.Go("target", func(p *Proc) { p.Park() })
	k.Go("waker", func(p *Proc) {
		p.Sleep(0) // let target park first
		target.Unpark()
		defer func() {
			if recover() == nil {
				t.Error("second Unpark did not panic")
			}
		}()
		target.Unpark() // resume already scheduled: must panic
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run after the refused Unpark: %v", err)
	}
	if k.nparked != 0 || target.parked {
		t.Fatalf("%d processes counted parked, target parked %v; want none", k.nparked, target.parked)
	}
}

// TestResourceRingWrapAndGrow cycles more waiters than the initial ring
// capacity through a single-unit resource, twice, so the ring both grows and
// wraps around its backing array; FIFO order must survive.
func TestResourceRingWrapAndGrow(t *testing.T) {
	k := NewKernel()
	r := NewResource(1)
	var order []int
	maxQueue := 0
	const waves, per = 2, 21 // > initial ring size of 8, not a power of two
	for w := 0; w < waves; w++ {
		w := w
		for i := 0; i < per; i++ {
			i := i
			k.Go(fmt.Sprintf("w%d-%d", w, i), func(p *Proc) {
				p.SleepUntil(float64(w) + float64(i)*1e-6)
				r.Acquire(p)
				p.Sleep(1e-3)
				maxQueue = max(maxQueue, r.QueueLen())
				order = append(order, w*per+i)
				r.Release()
			})
		}
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != waves*per {
		t.Fatalf("%d completions, want %d", len(order), waves*per)
	}
	for i, id := range order {
		if id != i {
			t.Fatalf("position %d: process %d completed (FIFO violated)", i, id)
		}
	}
	if maxQueue < per-2 {
		t.Fatalf("queue never got deep: max %d", maxQueue)
	}
}
