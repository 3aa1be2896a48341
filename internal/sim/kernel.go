// Package sim implements a deterministic, process-oriented discrete-event
// simulation kernel.
//
// The kernel owns a calendar of timestamped events and a virtual clock.
// Model code runs either as plain event callbacks or as processes:
// coroutines that advance virtual time with Sleep and block on Signals and
// Resources. Exactly one of them — the context's driver running its
// dispatch loop, or a single process it resumed — runs per execution
// context at any instant (see the baton protocol below), so waking a
// process takes coroutine switches only, never a trip through the Go
// scheduler. This strict discipline makes every simulation bit-reproducible
// regardless of GOMAXPROCS, at the cost of running the model serially
// (which is what a discrete-event simulation does anyway).
//
// Events at equal timestamps fire in scheduling order (a monotonically
// increasing sequence number breaks ties), so the model never depends on
// calendar implementation details.
//
// The hot path is allocation-free at steady state: the calendar (a radix
// heap, see calqueue.go) stores events by value in slices that keep their
// capacity when drained, and the AfterProc fast path schedules a process
// resume without the closure a plain At would capture.
package sim

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/trace"
)

// Layer tagging: every scheduled event carries the trace.Layer that was
// current when it was scheduled, packed into the top bits of its sequence
// number. The calendar's ordering predicate masks those bits off, so the
// (t, seq-counter) dispatch order — and with it every simulated result —
// is bit-identical whether the bits are zero (tracing off, no layer ever
// set) or populated. Dispatch then restores the popped event's layer as
// the kernel's current layer, which gives causal layer inheritance across
// event chains: a commit completion scheduled by the storage layer
// advances the clock as storage time even though the kernel pops it.
const (
	layerShift = 56
	seqMask    = 1<<layerShift - 1
)

// Kernel is a discrete-event simulation engine. The zero value is not usable;
// call NewKernel.
type Kernel struct {
	lane // the serial kernel's context, or the partitioned kernel's exclusive lane

	horizon float64 // Sleep may not advance the clock past this (RunUntil bound)
	running bool

	rec   *trace.Recorder // nil = tracing disabled (the only cost: nil checks)
	layer trace.Layer     // layer attributed to events scheduled now

	sh *shard // nil = serial mode (see partition.go)
}

// lane is one execution context's dispatch state: the kernel's own (the
// serial kernel, or the partitioned kernel's exclusive lane) and each
// partition's. Every context runs the same dispatch body over it (see
// dispatch); they differ only in which events they may dispatch.
type lane struct {
	cal     calQueue
	seq     uint64   // events ever inserted, the low bits of their keys
	now     float64  // the context's clock: the last event time it dispatched
	ctx     chainCtx // origin-chain context of the running segment (partitioned kernel only)
	ndisp   uint64   // events dispatched
	nwoken  uint64   // process resumes dispatched
	nparked int      // processes of this context currently parked
	reg     []*Proc  // every process spawned into this context, for deadlock reporting
	advLog  []advRec // clock-advance attributions awaiting the replay (traced partitioned kernel only)
}

// Hook is a pre-allocated event action. Hot schedulers (the MPI transport's
// message deliveries) implement it on a pooled object so firing an event
// allocates nothing; plain At callbacks are wrapped in one via funcHook,
// which is a free conversion because a func value is pointer-shaped.
type Hook interface{ Fire() }

type funcHook func()

func (f funcHook) Fire() { f() }

// event is one calendar entry, kept small so the calendar's heap operations
// move as little memory as possible. h is either an action to fire or —
// detected by type assertion in the dispatch loops — a *Proc to resume (the
// pooled fast path: converting a *Proc to Hook allocates nothing).
//
// parent and idx are the sharded-mode origin-chain stamp (see chain.go):
// the dispatch during which the event was inserted and its insert rank
// there. Serial mode leaves them zero — the serial kernel never compares
// events across calendars, and the calendar queues order by (t, seq) only.
type event struct {
	t      float64
	seq    uint64
	h      Hook
	parent *chainNode
	idx    uint64
}

// NewKernel returns a kernel with the clock at zero.
func NewKernel() *Kernel {
	return &Kernel{horizon: math.Inf(1)}
}

// Now returns the current simulation time in seconds.
func (k *Kernel) Now() float64 { return k.now }

// SetRecorder attaches a trace recorder; nil detaches it. Attach before
// building the model so construction-time instrumentation (fabric pipes)
// sees it. The recorder only observes — it never schedules events or draws
// randomness — so attaching one cannot change simulated results.
func (k *Kernel) SetRecorder(r *trace.Recorder) { k.rec = r }

// Recorder returns the attached trace recorder, nil when tracing is off.
// Instrumented layers cache it and guard emission with a nil check.
func (k *Kernel) Recorder() *trace.Recorder { return k.rec }

// SetLayer declares which layer's code is scheduling events until further
// notice, returning the previous layer so callers can restore it on exit.
// Layer entry points (an MPI operation, a storage write, a checkpoint
// phase) bracket themselves with it through Proc.Enter and Proc.Leave;
// everything in between — including events their callees schedule — is
// attributed to that layer. The layer
// is the kernel's on every context: a traced partitioned kernel runs its
// lanes one at a time (see startCrew).
func (k *Kernel) SetLayer(l trace.Layer) trace.Layer {
	prev := k.layer
	k.layer = l
	return prev
}

// At schedules fn to run at absolute simulation time t. Scheduling in the
// past panics: the model has a causality bug. In sharded mode the event
// goes to the shared (exclusive) calendar, so lane code must schedule
// through AtHookCtx or from a shared section.
func (k *Kernel) At(t float64, fn func()) { k.insert(t, funcHook(fn)) }

// After schedules fn to run d seconds from now.
func (k *Kernel) After(d float64, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	k.insert(k.now+d, funcHook(fn))
}

// AtHook schedules h to fire at absolute simulation time t without
// allocating: the caller owns (and may pool) the Hook.
func (k *Kernel) AtHook(t float64, h Hook) { k.insert(t, h) }

// AfterHook schedules h to fire d seconds from now.
func (k *Kernel) AfterHook(d float64, h Hook) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	k.insert(k.now+d, h)
}

// AfterProc schedules process p to resume d seconds from now: the
// allocation-free equivalent of After(d, func() { resume p }) that Unpark
// and Go schedule through. In sharded mode d counts from the clock
// governing p's resume context: the target's lane clock when that lane is
// running (the waker shares it), the exclusive clock otherwise.
func (k *Kernel) AfterProc(d float64, p *Proc) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	t := p.Now() + d
	if p.part == nil || p.sharedDepth > 0 {
		// Exclusive-lane processes and processes inside shared sections
		// resume on the exclusive lane, so an in-section wake — a barrier
		// release, a commit completion — can never land in a partition's
		// past.
		k.insert(t, p)
		return
	}
	k.insertLocal(p.part, t, p)
}

// insert places an event in the kernel's own calendar: the serial
// kernel's, or the partitioned kernel's shared (exclusive) one, which lane
// code may not reach.
func (k *Kernel) insert(t float64, h Hook) {
	if k.sh != nil && k.sh.inWindow {
		panic("sim: un-partitioned insert from lane context; schedule through AtHookCtx or a shared section")
	}
	k.push(&k.lane, 0, &k.ctx, t, h)
}

// push files h at t in ln's calendar under ln's next sequence number,
// packed with the partition tag and the current layer. On the partitioned
// kernel the event is also stamped with the origin chain of ctx, the
// inserting context's.
func (k *Kernel) push(ln *lane, tag uint64, ctx *chainCtx, t float64, h Hook) {
	if t < ln.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, ln.now))
	}
	if math.IsNaN(t) {
		panic("sim: scheduling event at NaN time")
	}
	ln.seq++
	ev := event{t: t, seq: ln.seq | tag | uint64(k.layer)<<layerShift, h: h}
	if k.sh != nil {
		if ln.seq > localMask {
			panic("sim: sequence counter overflow")
		}
		ev.parent, ev.idx = ctx.stamp()
	}
	ln.cal.push(ev)
}

// DeadlockError reports processes still blocked when the event calendar
// drained. In sharded mode it aggregates parked processes across every
// partition and the exclusive lane, and Parts records each process's
// partition (parallel to Procs; -1 = the shared/exclusive lane). Parts is
// nil for serial runs.
type DeadlockError struct {
	Procs []string // names of parked processes
	Parts []int    // owning partition per process, nil in serial mode
}

func (e *DeadlockError) Error() string {
	if e.Parts != nil {
		return fmt.Sprintf("sim: deadlock: %d processes still parked (first: %s %s)",
			len(e.Procs), e.Procs[0], partLabel(e.Parts[0]))
	}
	return fmt.Sprintf("sim: deadlock: %d processes still parked (first: %s)",
		len(e.Procs), e.Procs[0])
}

func partLabel(part int) string {
	if part < 0 {
		return "[shared]"
	}
	return fmt.Sprintf("[part %d]", part)
}

// deadlock reports the processes still parked on every lane, sorted by
// name, or nil when there are none.
func (k *Kernel) deadlock() error {
	var stuck []*Proc
	k.eachLane(func(ln *lane) {
		if ln.nparked == 0 {
			return
		}
		for _, p := range ln.reg {
			if p.parked {
				stuck = append(stuck, p)
			}
		}
	})
	if len(stuck) == 0 {
		return nil
	}
	slices.SortFunc(stuck, func(a, b *Proc) int {
		return cmp.Or(strings.Compare(a.name, b.name), a.Part()-b.Part())
	})
	e := &DeadlockError{}
	for _, p := range stuck {
		e.Procs = append(e.Procs, p.name)
		if k.sh != nil {
			e.Parts = append(e.Parts, p.Part())
		}
	}
	return e
}

// Run executes events until the calendar is empty. It returns a
// *DeadlockError if any process is still parked afterwards — that means the
// model blocked a process on a condition nothing will ever fire.
func (k *Kernel) Run() error {
	if k.running {
		panic("sim: Run called reentrantly")
	}
	k.running = true
	k.horizon = math.Inf(1)
	defer func() { k.running = false }()
	k.drain()
	k.settle()
	return k.deadlock()
}

// RunUntil executes events with timestamps <= t, then sets the clock to t.
func (k *Kernel) RunUntil(t float64) {
	prev := k.horizon
	k.horizon = t
	k.drain()
	k.horizon = prev
	if t > k.now {
		if k.rec != nil {
			k.advance(&k.lane, trace.LayerKernel, t)
		}
		k.now = t
	}
	k.settle()
}

// The baton protocol: every process runs on a coroutine (see start), and
// each execution context — the serial kernel, the sharded exclusive lane,
// one partition lane — has one goroutine driving it: the Run/RunUntil
// caller, the coordinator, or a lane worker. Exactly one party per context
// owns the kernel at any instant: the driver, or the one process it
// resumed. A process only yields its status back (see drive); the driver
// runs its own context's dispatch loop, so hooks and continuations run on
// the driver's stack, never on a process's, and resumes the process that
// loop returns. Waking a process is therefore two coroutine switches on the
// driver's thread — no goready, no wakeup of an idle P, no trip through the
// Go scheduler. A process whose own resume is the next one due pays the
// same two switches: 4.0% of resumes for coIO nf=1 at 16K ranks, 0.20% for
// rbIO, 7.9% for 1PFPP (the folded waits removed other resumes, not these);
// Sleep's fast path elides its common case. Every
// switch is a happens-before edge over all kernel and model state, which
// keeps the one-owner-per-context guarantee intact across goroutines (an
// admitted shared section resumes a lane's process from the coordinator)
// and lets `go test -race` verify it.

// drain runs the kernel from the Run/RunUntil caller until no event
// remains within the horizon, and leaves the kernel clock at the latest
// lane clock.
func (k *Kernel) drain() {
	if k.sh == nil {
		k.drive(nil, k.next(nil))
		return
	}
	k.runSharded()
	for _, pt := range k.sh.parts {
		if pt.now > k.now {
			k.now = pt.now
		}
	}
}

// next is the serial kernel's dispatch loop: it dispatches events within
// the horizon until one resumes a process — returned, possibly self, the
// process the driver resumed last — or none is left (nil). xNext and
// laneNext are its exclusive-lane and partition-lane counterparts. Only
// drivers call them.
func (k *Kernel) next(self *Proc) *Proc {
	for {
		ev, ok := k.cal.peek()
		if !ok || ev.t > k.horizon {
			return nil
		}
		if p := k.dispatch(&k.lane, ev, self); p != nil {
			return p
		}
	}
}

// dispatch pops ev, ln's calendar head, and runs it, the body every
// context's dispatch loop shares: a hook fires inline (nil is returned), a
// process resume returns the process, unless its continuation keeps it
// waiting (nil). The loops keep only the check of whether the head may
// run, and hand over the head they peeked: pop's own copy goes unused.
func (k *Kernel) dispatch(ln *lane, ev event, self *Proc) *Proc {
	ln.cal.pop()
	ln.ndisp++
	if k.sh != nil {
		ln.ctx.begin(ev.parent, ev.t, ev.idx)
	}
	if k.rec != nil {
		k.observe(ln, ev)
	}
	ln.now = ev.t
	p, isProc := ev.h.(*Proc)
	if !isProc {
		ev.h.Fire()
		return nil
	}
	if p.done {
		panic("sim: resuming finished process " + p.name)
	}
	if p.part != nil && ev.t > p.part.now {
		// An exclusive resume moves the owning partition's clock too —
		// including a self-resume, or the process's own Now() would lag
		// its kernel clock — so its later lane-local inserts are causally
		// sound.
		p.part.now = ev.t
	}
	if !p.resumes() {
		return nil
	}
	if p != self {
		ln.nwoken++
	}
	return p
}

// observe is the tracing-enabled half of a dispatch: attribute the clock
// advance to the popped event's layer, adopt that layer as current, and
// on the serial kernel sample the calendar depth. Split out so the
// disabled hot path pays one nil check and nothing else.
func (k *Kernel) observe(ln *lane, ev event) {
	lay := trace.Layer(ev.seq >> layerShift)
	k.advance(ln, lay, ev.t)
	k.layer = lay
	if k.sh == nil && ln.ndisp&4095 == 0 {
		k.rec.Counter(trace.LayerKernel, "cal.depth", 0, ev.t, float64(ln.cal.len()))
	}
}

// advance attributes ln's clock moving to t to layer l: at once on the
// serial kernel; on the partitioned one through ln's advance log, stamped
// with the running segment's origin (the dispatched event's, or the
// elided resume's), which replay orders against the other lanes' logs.
func (k *Kernel) advance(ln *lane, l trace.Layer, t float64) {
	if t <= ln.now {
		return
	}
	if k.sh == nil {
		k.rec.Advance(l, ln.now, t)
		return
	}
	ln.advLog = append(ln.advLog, advRec{t: t, layer: l, parent: ln.ctx.segParent, idx: ln.ctx.segIdx})
}

// drive is the driver's half of the baton protocol on lane pt, or with pt
// nil on the kernel's own context: starting with p, it resumes a process
// and runs the context's dispatch loop for the next, until the loop runs
// dry or a process suspends into a shared section. A process that yields
// continuing (AwaitNow) has its continuation run here, before anything is
// dispatched, and is resumed again at once, uncounted, if the continuation
// asks for it. The loop is handed the process just resumed, whose own
// resume next is then no wake.
func (k *Kernel) drive(pt *partition, p *Proc) {
	for p != nil {
		switch st, _ := p.co.resume(); st {
		case continuing:
			if p.resumes() {
				continue
			}
		case suspended:
			return
		case ended:
			p.co.release()
			p.co = nil
		}
		switch {
		case pt != nil:
			p = k.laneNext(pt, p)
		case k.sh != nil:
			p = k.xNext(p)
		default:
			p = k.next(p)
		}
	}
}

// eachLane calls f on the kernel's own lane, then on every partition's in
// index order.
func (k *Kernel) eachLane(f func(ln *lane)) {
	f(&k.lane)
	if k.sh != nil {
		for _, pt := range k.sh.parts {
			f(&pt.lane)
		}
	}
}

// Events reports the total number of events ever scheduled — the natural
// denominator for events-per-second throughput measurements. In sharded
// mode it sums every lane's count, which can exceed the serial run's: a
// lane's Sleep fast path stops at the window bound, so the partitioned
// kernel schedules some resumes the serial one elides.
func (k *Kernel) Events() (n uint64) {
	k.eachLane(func(ln *lane) { n += ln.seq })
	return n
}

// Dispatched reports events popped and dispatched, on every lane.
func (k *Kernel) Dispatched() (n uint64) {
	k.eachLane(func(ln *lane) { n += ln.ndisp })
	return n
}

// Woken reports process resumes dispatched through the baton protocol,
// other than a process's resume following straight on its own yield.
// Sleep's handoff-eliding fast path does not count: no resume event fires.
func (k *Kernel) Woken() (n uint64) {
	k.eachLane(func(ln *lane) { n += ln.nwoken })
	return n
}
