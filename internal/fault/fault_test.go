package fault

import (
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/xrand"
)

// TestSampleReproducible pins the determinism contract of the sampler: the
// same seed yields the identical schedule, different seeds differ.
func TestSampleReproducible(t *testing.T) {
	rates := map[Class]Rates{
		Node:   {N: 16, MTBF: 3600, MTTR: 600, Shape: 1.2},
		Server: {N: 4, MTBF: 1800, MTTR: 300},
		Link:   {N: 4, MTBF: 2400, MTTR: 300, Factor: 0.25},
	}
	a := Sample(xrand.New(42), 7200, rates)
	b := Sample(xrand.New(42), 7200, rates)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different schedules:\n%v\nvs\n%v", a, b)
	}
	if len(a) == 0 {
		t.Fatal("expected events over a 2h window with sub-hour MTBFs")
	}
	c := Sample(xrand.New(43), 7200, rates)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical schedules")
	}
	for i, ev := range a {
		if ev.Time < 0 || ev.Time >= 7200 {
			t.Errorf("event %d outside horizon: %+v", i, ev)
		}
		if i > 0 && ev.Time < a[i-1].Time {
			t.Errorf("schedule not sorted at %d: %v after %v", i, ev, a[i-1])
		}
	}
}

// TestSamplePermanentFailures checks that MTTR 0 emits a single Fail per
// component and never a Restore.
func TestSamplePermanentFailures(t *testing.T) {
	s := Sample(xrand.New(1), 1e6, map[Class]Rates{Server: {N: 8, MTBF: 100}})
	fails := map[int]int{}
	for _, ev := range s {
		if ev.Kind != Fail {
			t.Fatalf("permanent class emitted %v", ev)
		}
		fails[ev.Index]++
	}
	for idx, n := range fails {
		if n != 1 {
			t.Errorf("server %d failed %d times; permanent failures must fire once", idx, n)
		}
	}
}

// TestInjectorReplay drives a hand-written schedule through a kernel and
// checks live state, the pure UpAt query, subscriber ordering and counts.
func TestInjectorReplay(t *testing.T) {
	sched := Schedule{
		{Time: 3, Class: Server, Index: 1, Kind: Restore},
		{Time: 1, Class: Server, Index: 1, Kind: Fail},
		{Time: 2, Class: Link, Index: 0, Kind: Degrade, Factor: 0.5},
		{Time: 4, Class: Link, Index: 0, Kind: Restore},
		{Time: 5, Class: Node, Index: 2, Kind: Fail},
	}
	k := sim.NewKernel()
	in := NewInjector(k, sched)

	// UpAt is pure: answers are available before the kernel runs.
	for _, tc := range []struct {
		t    float64
		want bool
	}{{0.5, true}, {1, false}, {2.9, false}, {3, true}, {10, true}} {
		if got := in.UpAt(Server, 1, tc.t); got != tc.want {
			t.Errorf("UpAt(Server,1,%v) = %v, want %v", tc.t, got, tc.want)
		}
	}
	if !in.UpAt(Node, 2, 4.9) || in.UpAt(Node, 2, 5) {
		t.Error("UpAt(Node,2) transition at t=5 wrong")
	}
	if !in.UpAt(ION, 0, 100) {
		t.Error("component with no events must always be up")
	}

	var seen []Event
	in.Subscribe(func(ev Event) { seen = append(seen, ev) })
	// Link 0's bandwidth multiplier as a subscriber applies it to the link
	// (exp's attachFaults sets the NIC's degrade): a Degrade sets it, a
	// Restore clears it.
	factor := 1.0
	in.Subscribe(func(ev Event) {
		switch {
		case ev.Class != Link || ev.Index != 0:
		case ev.Kind == Degrade:
			factor = ev.Factor
		case ev.Kind == Restore:
			factor = 1
		}
	})

	probe := func(at float64, fn func()) { k.At(at, fn) }
	probe(1.5, func() {
		if in.Up(Server, 1) {
			t.Error("server 1 should be down at t=1.5")
		}
		if factor != 1 {
			t.Error("link 0 should be at full bandwidth at t=1.5")
		}
	})
	probe(2.5, func() {
		if factor != 0.5 {
			t.Errorf("link 0 factor at t=2.5 = %v, want 0.5", factor)
		}
	})
	probe(4.5, func() {
		if !in.Up(Server, 1) {
			t.Error("server 1 should be restored at t=4.5")
		}
		if factor != 1 {
			t.Error("link 0 should be restored at t=4.5")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}

	if len(seen) != len(sched) {
		t.Fatalf("subscriber saw %d events, want %d", len(seen), len(sched))
	}
	for i := 1; i < len(seen); i++ {
		if seen[i].Time < seen[i-1].Time {
			t.Fatalf("events fired out of order: %v after %v", seen[i], seen[i-1])
		}
	}
	c := in.Counts()
	if c.Fails != 2 || c.Restores != 2 {
		t.Errorf("counts = %+v, want 2 fails, 2 restores", c)
	}
	if !in.Up(Server, 1) || in.Up(Node, 2) {
		t.Error("final live state wrong")
	}
}

// TestNilInjector pins the nil-safety contract every caller relies on.
func TestNilInjector(t *testing.T) {
	var in *Injector
	if !in.Up(Server, 0) || !in.UpAt(Node, 3, 1e9) {
		t.Error("nil injector must report everything up")
	}
	in.Subscribe(func(Event) {}) // must not panic
	if in.Counts() != (Counts{}) {
		t.Error("nil injector must report zero counts")
	}
	if in.Schedule() != nil {
		t.Error("nil injector must have a nil schedule")
	}
}
