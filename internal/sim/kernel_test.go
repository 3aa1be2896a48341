package sim

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestEventOrdering(t *testing.T) {
	k := NewKernel()
	var got []int
	k.At(3, func() { got = append(got, 3) })
	k.At(1, func() { got = append(got, 1) })
	k.At(2, func() { got = append(got, 2) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if k.Now() != 3 {
		t.Fatalf("clock %v, want 3", k.Now())
	}
}

func TestTieBreakBySchedulingOrder(t *testing.T) {
	k := NewKernel()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		k.At(5, func() { got = append(got, i) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("events at equal time fired out of scheduling order: %v", got[:i+1])
		}
	}
}

func TestAfterAccumulates(t *testing.T) {
	k := NewKernel()
	var times []float64
	k.AfterHook(1, funcHook(func() {
		times = append(times, k.Now())
		k.AfterHook(2, funcHook(func() { times = append(times, k.Now()) }))
	}))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if times[0] != 1 || times[1] != 3 {
		t.Fatalf("got %v, want [1 3]", times)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	k := NewKernel()
	k.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		k.At(5, func() {})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRunUntil(t *testing.T) {
	k := NewKernel()
	fired := 0
	k.At(1, func() { fired++ })
	k.At(2, func() { fired++ })
	k.At(5, func() { fired++ })
	k.RunUntil(3)
	if fired != 2 {
		t.Fatalf("fired %d events by t=3, want 2", fired)
	}
	if k.Now() != 3 {
		t.Fatalf("clock %v, want 3", k.Now())
	}
	if k.lane.cal.len() != 1 {
		t.Fatalf("pending %d, want 1", k.lane.cal.len())
	}
}

func TestHeapPropertyRandomOrder(t *testing.T) {
	// Property: regardless of insertion order, events fire sorted by time.
	f := func(seeds []uint16) bool {
		if len(seeds) == 0 {
			return true
		}
		k := NewKernel()
		var got []float64
		for _, s := range seeds {
			ts := float64(s)
			k.At(ts, func() { got = append(got, ts) })
		}
		if err := k.Run(); err != nil {
			return false
		}
		return sort.Float64sAreSorted(got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestClockMonotonic(t *testing.T) {
	k := NewKernel()
	last := -1.0
	var schedule func(depth int)
	schedule = func(depth int) {
		if k.Now() < last {
			t.Fatalf("clock went backwards: %v after %v", k.Now(), last)
		}
		last = k.Now()
		if depth < 50 {
			k.AfterHook(0.5, funcHook(func() { schedule(depth + 1) }))
		}
	}
	k.AfterHook(0, funcHook(func() { schedule(0) }))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestNaNTimePanics(t *testing.T) {
	k := NewKernel()
	defer func() {
		if recover() == nil {
			t.Fatal("NaN schedule did not panic")
		}
	}()
	k.At(math.NaN(), func() {})
}

func TestNegativeAfterPanics(t *testing.T) {
	k := NewKernel()
	defer func() {
		if recover() == nil {
			t.Fatal("negative AfterHook did not panic")
		}
	}()
	k.AfterHook(-1, funcHook(func() {}))
}

func TestDeadlockErrorMessage(t *testing.T) {
	err := &DeadlockError{Procs: []string{"a", "b"}}
	if !strings.Contains(err.Error(), "2 processes") || !strings.Contains(err.Error(), "a") {
		t.Fatalf("message %q", err.Error())
	}
}

func TestPendingCount(t *testing.T) {
	k := NewKernel()
	k.At(1, func() {})
	k.At(2, func() {})
	if k.lane.cal.len() != 2 {
		t.Fatalf("pending %d", k.lane.cal.len())
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if k.lane.cal.len() != 0 {
		t.Fatalf("pending after run %d", k.lane.cal.len())
	}
}
