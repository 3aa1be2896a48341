// Package fault is the simulator's fault-injection layer: a seeded,
// deterministic schedule of component failures, repairs and link
// degradations, replayed inside the discrete-event kernel.
//
// A Schedule is either written out explicitly (for targeted scenario tests)
// or sampled from per-class MTBF/MTTR rates (Weibull inter-failure times,
// exponential repairs) with Sample. An Injector arms the schedule on a
// kernel: every event becomes a kernel callback that flips the component's
// live state and notifies subscribers, so the storage stack, the burst
// buffer and the checkpoint strategies can all observe the same failure
// timeline.
//
// Determinism contract: the schedule is fully determined by (seed, horizon,
// rates) before the simulation starts, and all state queries are pure
// functions of the schedule and a simulated time. With a nil *Injector (or
// no events), every query short-circuits to "up" with zero RNG draws, so
// fault-free runs stay byte-identical to a build without this package.
package fault

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/sim"
	"repro/internal/xrand"
)

// Class identifies the kind of simulated component an event targets.
type Class uint8

const (
	// Node is a compute node: its ranks skip or ghost their checkpoints
	// while it is down.
	Node Class = iota
	// ION is an I/O node: a dead ION loses its burst-buffer contents and
	// forces writers in its pset onto the synchronous path.
	ION
	// Server is a file server: commits and reads retry, back off and fail
	// over to surviving servers.
	Server
	// Link is an ION's Ethernet NIC: it degrades to a fraction of its
	// bandwidth rather than going down.
	Link

	numClasses
)

func (c Class) String() string {
	switch c {
	case Node:
		return "node"
	case ION:
		return "ion"
	case Server:
		return "server"
	case Link:
		return "link"
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// Kind is what happens to the component at the event time.
type Kind uint8

const (
	// Fail takes the component down.
	Fail Kind = iota
	// Restore brings it back up (and restores full link bandwidth).
	Restore
	// Degrade scales a link's bandwidth by Factor without taking it down.
	Degrade
)

func (k Kind) String() string {
	switch k {
	case Fail:
		return "fail"
	case Restore:
		return "restore"
	case Degrade:
		return "degrade"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one scheduled state change of one component.
type Event struct {
	Time   float64
	Class  Class
	Index  int
	Kind   Kind
	Factor float64 // Degrade only: bandwidth multiplier in (0,1]
}

// Schedule is a set of fault events. Order is normalized by Sort; an
// Injector sorts its copy on construction.
type Schedule []Event

// Sort orders the schedule by (time, class, index, kind) so that replay and
// state queries are independent of construction order.
func (s Schedule) Sort() {
	sort.SliceStable(s, func(i, j int) bool {
		a, b := s[i], s[j]
		if a.Time != b.Time {
			return a.Time < b.Time
		}
		if a.Class != b.Class {
			return a.Class < b.Class
		}
		if a.Index != b.Index {
			return a.Index < b.Index
		}
		return a.Kind < b.Kind
	})
}

// Rates describes the failure process of one component class.
type Rates struct {
	N     int     // number of components in the class
	MTBF  float64 // per-component mean time between failures, seconds (0: immune)
	MTTR  float64 // mean time to repair, seconds (0: failures are permanent)
	Shape float64 // Weibull shape for inter-failure times; <=0 or 1 means exponential
	// Factor is the Link bandwidth multiplier while degraded;
	// ignored for other classes (they go fully down).
	Factor float64
}

// Sample draws a fault schedule over [0, horizon) from per-class rates.
// Classes and components are visited in a fixed order and each component's
// renewal process is drawn to completion before the next, so the result is a
// pure function of the RNG seed and the arguments. A repair that would land
// beyond the horizon is not emitted: the component stays down for the rest
// of the run (an outage in progress at the end of the window).
func Sample(rng *xrand.RNG, horizon float64, rates map[Class]Rates) Schedule {
	var s Schedule
	for cl := Class(0); cl < numClasses; cl++ {
		r, ok := rates[cl]
		if !ok || r.MTBF <= 0 || r.N <= 0 {
			continue
		}
		shape := r.Shape
		if shape <= 0 {
			shape = 1
		}
		// Parameterize so the sampled mean equals MTBF: the Weibull mean is
		// scale*Gamma(1+1/shape).
		scale := r.MTBF / math.Gamma(1+1/shape)
		for i := 0; i < r.N; i++ {
			t := 0.0
			for {
				t += rng.Weibull(scale, shape)
				if t >= horizon {
					break
				}
				if cl == Link {
					f := r.Factor
					if f <= 0 || f > 1 {
						f = 0.25
					}
					s = append(s, Event{Time: t, Class: cl, Index: i, Kind: Degrade, Factor: f})
				} else {
					s = append(s, Event{Time: t, Class: cl, Index: i, Kind: Fail})
				}
				if r.MTTR <= 0 {
					break // permanent
				}
				repair := rng.Exp(r.MTTR)
				if t+repair >= horizon {
					break // still down when the window closes
				}
				t += repair
				s = append(s, Event{Time: t, Class: cl, Index: i, Kind: Restore})
			}
		}
	}
	s.Sort()
	return s
}

type compKey struct {
	cl  Class
	idx int
}

// Counts tallies fired events per kind, for reporting.
type Counts struct {
	Fails    int
	Restores int
}

// Injector replays a Schedule on a kernel and answers liveness queries.
// All methods are nil-safe: a nil *Injector means "no faults" and every
// query returns up without touching an RNG.
type Injector struct {
	sched   Schedule
	perComp map[compKey][]Event // time-sorted per-component history
	down    map[compKey]bool
	subs    []func(Event)
	counts  Counts
}

// NewInjector arms the schedule on the kernel: each event is registered as a
// kernel callback up front (before any model process is spawned), so the
// event sequence numbers — and therefore same-instant ordering against model
// events — are fixed by the schedule alone.
func NewInjector(k *sim.Kernel, sched Schedule) *Injector {
	s := make(Schedule, len(sched))
	copy(s, sched)
	s.Sort()
	in := &Injector{
		sched:   s,
		perComp: make(map[compKey][]Event),
		down:    make(map[compKey]bool),
	}
	for _, ev := range s {
		key := compKey{ev.Class, ev.Index}
		in.perComp[key] = append(in.perComp[key], ev)
	}
	for _, ev := range s {
		ev := ev
		at := ev.Time
		if at < k.Now() {
			at = k.Now()
		}
		k.At(at, func() { in.fire(ev) })
	}
	return in
}

func (in *Injector) fire(ev Event) {
	key := compKey{ev.Class, ev.Index}
	switch ev.Kind {
	case Fail:
		in.down[key] = true
		in.counts.Fails++
	case Restore:
		in.down[key] = false
		in.counts.Restores++
	}
	for _, fn := range in.subs {
		fn(ev)
	}
}

// Subscribe registers fn to run on every fired event, in subscription
// order. It must be called before the kernel runs past the first event.
func (in *Injector) Subscribe(fn func(Event)) {
	if in == nil {
		return
	}
	in.subs = append(in.subs, fn)
}

// Up reports whether the component is up at the current simulated time.
func (in *Injector) Up(cl Class, idx int) bool {
	if in == nil {
		return true
	}
	return !in.down[compKey{cl, idx}]
}

// UpAt reports whether the component is up at simulated time t, past or
// future, straight from the schedule. State changes take effect at exactly
// their event time: a component that fails at T is down for queries at >= T.
func (in *Injector) UpAt(cl Class, idx int, t float64) bool {
	if in == nil {
		return true
	}
	up := true
	for _, ev := range in.perComp[compKey{cl, idx}] {
		if ev.Time > t {
			break
		}
		switch ev.Kind {
		case Fail:
			up = false
		case Restore:
			up = true
		}
	}
	return up
}

// Schedule returns the injector's normalized schedule (shared slice; do not
// mutate).
func (in *Injector) Schedule() Schedule {
	if in == nil {
		return nil
	}
	return in.sched
}

// Counts reports how many events have fired so far.
func (in *Injector) Counts() Counts {
	if in == nil {
		return Counts{}
	}
	return in.counts
}

// FailsIn returns the class's Fail events with time in (t0, t1], in
// schedule order. The recovery lifecycle driver uses it to detect whether a
// kill hit a running segment — a pure query against the fixed schedule, so
// detection is as deterministic as the injection itself.
func (s Schedule) FailsIn(cl Class, t0, t1 float64) []Event {
	var out []Event
	for _, ev := range s {
		if ev.Kind == Fail && ev.Class == cl && ev.Time > t0 && ev.Time <= t1 {
			out = append(out, ev)
		}
	}
	return out
}

// NextRestore returns the earliest Restore event for the component strictly
// after t, for health-wait scheduling. ok is false when the component never
// restores (a permanent failure).
func (s Schedule) NextRestore(cl Class, idx int, t float64) (float64, bool) {
	for _, ev := range s {
		if ev.Kind == Restore && ev.Class == cl && ev.Index == idx && ev.Time > t {
			return ev.Time, true
		}
	}
	return 0, false
}
