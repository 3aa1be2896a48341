package sim

import (
	"fmt"

	"repro/internal/trace"
)

// Proc is a simulation process: a body (a Cont) that runs in the dispatch
// slots of the process's own resumes, on the driver's stack, advancing
// virtual time with SleepFast and UnparkAfter and awaiting nested
// continuations with Then. A process needs no goroutine of its own: only
// a phase that must block — Sleep, Park, a Resource, a shared section —
// borrows a coroutine (Borrow), and control moves between that phase and
// the kernel under the baton protocol (see kernel.go). Go spawns a body
// that borrows one at once for a plain function.
//
// All Proc methods must be called from the process's own code — its body,
// a continuation it awaits, or a borrowed phase; all other parties
// interact with a process only via Unpark (typically indirectly, through
// Signal and Resource).
type Proc struct {
	k    *Kernel
	name string
	body Cont       // the process's own code; nil once p ended
	cont Cont       // runs in the slot of p's resumes while set (see Await)
	co   *coroutine // the coroutine p borrowed (see Borrow); nil before its first borrow and once p ended
	part *partition // owning partition in sharded mode, nil otherwise

	sharedDepth int32 // EnterShared nesting; > 0 routes resumes exclusively
	done        bool
	parked      bool
	inPhase     bool // a borrowed phase runs on co
}

// Start spawns a process whose code is body, owned by partition part (see
// GoPart; -1 or a serial kernel: the kernel's own context), starting at
// the current simulation time. Its first resume runs body.Continue, and so
// does every later one with no continuation awaited. body returns true
// when the process ends and false when it waits: on a wake it arranged, on
// a continuation it awaits (Then) or on a phase it borrowed (Borrow). It
// runs with the process counted parked, as a continuation does.
func (k *Kernel) Start(part int, name string, body Cont) *Proc {
	p := &Proc{k: k, name: name, body: body}
	if k.sh != nil && part >= 0 {
		p.part = k.sh.parts[part]
	}
	home := p.home()
	home.reg = append(home.reg, p)
	k.AfterProc(0, p)
	return p
}

// Go spawns fn as a new process starting at the current simulation time.
// fn runs entirely inside the simulation; when it returns the process ends.
func (k *Kernel) Go(name string, fn func(p *Proc)) *Proc { return k.GoPart(-1, name, fn) }

// GoPart spawns fn as a process owned by partition part: its resumes live
// in that partition's calendar and run on its lane. In serial mode (or
// with part < 0) it is exactly Go. Its body is fn as a Phase.
func (k *Kernel) GoPart(part int, name string, fn func(p *Proc)) *Proc {
	b := &phase{fn: fn}
	b.p = k.Start(part, name, b)
	return b.p
}

// Phase returns fn, code of p that blocks, as a continuation p's body
// awaits: it borrows a coroutine for fn (Borrow) and finishes once fn
// returned.
func (p *Proc) Phase(fn func(p *Proc)) Cont { return &phase{p: p, fn: fn} }

// phase is a Phase in flight.
type phase struct {
	p  *Proc
	fn func(p *Proc)
}

func (b *phase) Continue() bool {
	if b.fn == nil {
		return true
	}
	b.p.Borrow(b.fn)
	b.fn = nil
	return false
}

// Fire implements Hook so a *Proc can sit directly in an event. The dispatch
// loops recognize processes by type assertion and return them to their
// driver to resume instead of calling Fire; reaching it means an event
// bypassed dispatch.
func (p *Proc) Fire() { panic("sim: Proc.Fire called outside dispatch") }

// Kernel returns the kernel this process runs on.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current simulation time as seen by this process: its
// partition's clock while it runs on its lane, the kernel (exclusive) clock
// otherwise. Off the lane the partition clock may be ahead: the window that
// suspended the shared section which woke p can have run p's partition up
// to a lookahead past the wake.
func (p *Proc) Now() float64 {
	if p.OnLane() {
		return p.part.now
	}
	return p.k.now
}

// Part returns the process's owning partition index, -1 when it runs on
// the shared lane or the kernel is serial.
func (p *Proc) Part() int {
	if p.part == nil {
		return -1
	}
	return p.part.idx
}

// OnLane reports whether p's partition lane is running. That lane is then
// the execution context of everything acting for the partition: p's own
// code (a process inside a shared section runs on the exclusive lane, never
// during a window) and hooks firing on p's behalf, even while p itself sits
// parked in a shared section. Model code uses it to pick lane-private
// resources (pools, scratch) over their globally shared counterparts.
func (p *Proc) OnLane() bool {
	return p.part != nil && p.part.active
}

// Rec returns the kernel's trace recorder, nil when tracing is off.
func (p *Proc) Rec() *trace.Recorder { return p.k.rec }

// Enter opens one of p's traced operations: it makes l the current layer
// and returns the layer to restore and the operation's start, for Leave.
// Tracing off, it does nothing and returns zeros. Enter and Leave are the
// one protocol of layer entry outside the kernel (DESIGN §9).
func (p *Proc) Enter(l trace.Layer) (prev trace.Layer, t0 float64) {
	if p.k.rec == nil {
		return 0, 0
	}
	return p.k.SetLayer(l), p.Now()
}

// Leave closes an operation opened by Enter: it records a span of bytes
// named name on layer l and track from t0 to now, then restores prev.
// Tracing off, it does nothing.
func (p *Proc) Leave(prev, l trace.Layer, name string, track int, t0 float64, bytes int64) {
	if p.k.rec == nil {
		return
	}
	p.k.rec.Span(l, name, track, t0, p.Now(), bytes)
	p.k.layer = prev
}

// home returns the lane p belongs to: its partition's, or the kernel's own.
func (p *Proc) home() *lane {
	if p.part != nil {
		return &p.part.lane
	}
	return &p.k.lane
}

// EnterShared marks the start of a code region that reads or writes state
// outside the process's partition (storage, collectives, cross-pset
// messaging). In sharded mode, when called from the partition's lane, it
// suspends the lane and re-runs the process on the globally-ordered
// exclusive lane at the segment's origin key — exactly where the serial
// kernel would have dispatched this code: the process yields suspended,
// which ends its lane's drive for this window, and the coordinator resumes
// it when it admits the section. Nested calls and serial mode are no-ops;
// every EnterShared must be paired with an ExitShared.
func (p *Proc) EnterShared() {
	p.sharedDepth++
	if p.sharedDepth > 1 {
		return
	}
	k := p.k
	if k.sh == nil {
		return
	}
	pt := p.part
	if pt == nil || !pt.active {
		return // already on the exclusive lane
	}
	pt.nsusp++
	pt.pend = append(pt.pend, pendReq{t: pt.ctx.segT, node: pt.ctx.segNode(), nextIdx: pt.ctx.nextIdx, layer: k.layer, p: p})
	p.yield(suspended)
}

// ExitShared closes an EnterShared region. The process keeps running on
// the exclusive lane until its next yield, whose resume is routed back to
// its partition's calendar.
func (p *Proc) ExitShared() {
	if p.sharedDepth <= 0 {
		panic("sim: ExitShared without EnterShared on " + p.name)
	}
	p.sharedDepth--
}

// Sleep suspends the process for d seconds of simulation time.
//
// Fast path: when no pending event precedes the wake-up time, yielding to the
// kernel would pop exactly this process's resume event and hand control
// straight back, so the process advances the clock itself and keeps running —
// no scheduling, no coroutine switches. This elides
// the entire handoff during serialized phases (one active timeline) and is
// exactly order-preserving: the relative (t, seq) order of all other events
// is untouched.
func (p *Proc) Sleep(d float64) {
	if p.SleepFast(d) {
		return
	}
	p.k.AfterProc(d, p)
	p.yield(waiting)
}

// SleepFast takes Sleep(d)'s fast path when it applies — the clock advances
// in place and SleepFast returns true — and otherwise returns false having
// changed nothing, leaving the caller to schedule its own resume.
//
// On a lane the fast path may advance the lane clock when no local event
// precedes the wake-up and the wake-up time stays strictly below the
// window bound. Elsewhere it must clear every calendar: on the partitioned
// kernel the shared head, pending sections and all partition heads —
// exactly the serial kernel's single-calendar check, split across shards.
// On the partitioned kernel the elided resume still opens a new
// origin-chain segment (ctx.elide): if the process later suspends into a
// shared section, it must do so at the key its resume would have held —
// not at the stale origin of a sleep it skipped — or the exclusive lane
// would run the section out of global order.
func (p *Proc) SleepFast(d float64) bool {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative sleep %v", d))
	}
	k := p.k
	ln := &k.lane
	t := k.now + d
	if p.OnLane() {
		ln = &p.part.lane
		t = ln.now + d
		if t >= p.part.bound.t {
			return false
		}
	} else if t > k.horizon || k.sh != nil && k.frontier() <= t {
		return false
	}
	if next, ok := ln.cal.peek(); ok && next.t <= t {
		return false
	}
	if k.sh != nil {
		ln.ctx.elide(t)
	}
	if k.rec != nil {
		// The elided handoff advances the clock without an event; attribute
		// it to the layer that would have tagged one.
		k.advance(ln, k.layer, t)
	}
	ln.now = t
	if p.part != nil && t > p.part.now {
		p.part.now = t
	}
	return true
}

// SleepUntil suspends the process until absolute simulation time t. Times in
// the past (or the present) return immediately without yielding.
func (p *Proc) SleepUntil(t float64) {
	now := p.Now()
	if t <= now {
		return
	}
	p.Sleep(t - now)
}

// Park suspends the process indefinitely until some other party calls
// Unpark. The caller is responsible for having registered itself somewhere
// (a Signal's or Resource's wait list) that will eventually unpark it; the
// kernel reports a deadlock otherwise.
func (p *Proc) Park() {
	p.setParked(true)
	p.yield(waiting)
}

// yield hands the baton back to p's driver with status st, from p's
// borrowed phase: the only code of p that may block.
func (p *Proc) yield(st status) {
	if !p.inPhase {
		panic("sim: " + p.name + " blocks outside a borrowed phase")
	}
	p.co.yield(st)
}

// setParked moves p in or out of its lane's parked count.
func (p *Proc) setParked(on bool) {
	p.parked = on
	ln := p.home()
	if on {
		ln.nparked++
	} else {
		ln.nparked--
	}
}

// Unpark schedules a parked process to resume at the current simulation
// time. It panics if the process is not parked — that is always a
// wait-list bookkeeping bug in the caller (for example unparking a process
// whose resume event is already scheduled).
func (p *Proc) Unpark() { p.UnparkAfter(0) }

// UnparkAfter schedules a parked process to resume d seconds from now. It
// lets a waker fold a wake-then-sleep sequence into a single resume when the
// woken process would only burn a fixed delay before touching shared state —
// one handoff instead of two. A wake the kernel refuses (a lane reaching
// into another partition outside a shared section) panics with p still
// parked.
func (p *Proc) UnparkAfter(d float64) {
	if !p.parked {
		panic("sim: Unpark of non-parked process " + p.name)
	}
	p.k.AfterProc(d, p)
	p.setParked(false)
}

// Cont is a continuation: the rest of a waiting process's work, written as
// steps the kernel runs in the dispatch slot of each of the process's
// resumes instead of switching to a coroutine (see Await). A process's
// body is one too (see Start).
type Cont interface {
	// Continue runs in the slot of one of the process's resumes, in
	// whichever dispatch loop pops it, with the process parked. It returns
	// true to resume the process in that very slot: the phase that awaited
	// it, or the body. It returns false once it has arranged the process's
	// next wake exactly as the process's own code would have — a wait
	// list, UnparkAfter for a fixed delay, or a phase it borrowed — and the
	// process stays parked.
	Continue() bool
}

// Borrow lends p a coroutine for fn, a phase of p's work that blocks:
// p's body, or a continuation p awaits, calls it and returns false, and fn
// starts in the same slot, with no event. When fn returns, the borrower's
// Continue runs again in the slot where it returned. A continuation
// awaited from a phase lends fn that phase's own coroutine. p keeps the
// coroutine it borrowed until it ends.
func (p *Proc) Borrow(fn func(p *Proc)) {
	if p.co == nil {
		p.co = newCoroutine()
		p.co.p = p
	}
	p.co.fn = fn
}

// Then awaits c from p's body with AwaitNow's semantics: c.Continue runs
// at once, and Then reports whether c finished. When it did not, the body
// returns false, and it runs on in the slot where c finishes. Only a body
// calls Then; a continuation awaits another by calling its Continue.
func (p *Proc) Then(c Cont) bool {
	if p.inPhase {
		panic("sim: Then inside a borrowed phase of " + p.name)
	}
	if c.Continue() {
		return true
	}
	p.cont = c
	return false
}

// Await parks p with c as its continuation. Every later resume of p runs
// c.Continue in the resume's own (t, seq) slot, so a process whose work
// between waits needs no coroutine of its own — a tree collective's hops —
// waits through any number of wakes and is switched to once, when c
// resumes it. The wakers need not know: they Unpark p as usual. Called
// from p's body, which is parked already, it only sets c, and the body
// returns false.
func (p *Proc) Await(c Cont) {
	if !p.inPhase {
		p.cont = c
		return
	}
	p.setParked(true)
	p.await(c, waiting)
}

// AwaitNow parks p with c as its continuation and runs c.Continue at
// once, on the driver's stack: p's phase yields, and its driver runs the
// continuation before it dispatches anything else, at the same instant and
// on the same state p's own code would have. A continuation that returns
// true resumes p there and then, with no event and no wake; one that
// waits leaves p waiting as it arranged. Code that would grow p's stack —
// a collective's first hops — thus runs on the driver's instead.
func (p *Proc) AwaitNow(c Cont) { p.await(c, continuing) }

// AwaitAfter is Sleep(d) with c as p's continuation from the wake-up on:
// p's resume is scheduled exactly where Sleep schedules it, and runs
// c.Continue in its slot. It takes no fast path; callers try SleepFast
// first.
func (p *Proc) AwaitAfter(d float64, c Cont) {
	p.k.AfterProc(d, p)
	p.await(c, waiting)
}

// await yields st from p's phase with c as p's continuation, and returns
// once c resumed it. A function c borrowed meanwhile runs here, on the
// phase's coroutine, and c goes on when it returns; the continuation that
// borrowed the phase itself is kept for the phase's own return.
func (p *Proc) await(c Cont, st status) {
	then := p.co.then
	p.cont = c
	p.yield(st)
	for p.co.fn != nil {
		fn := p.co.fn
		p.co.fn = nil
		fn(p)
		p.cont, p.co.then = p.co.then, then
		p.co.yield(continuing)
	}
}

// resumes reports whether the resume of p just popped hands p's coroutine
// the baton. A phase waiting plainly always takes it. Otherwise the
// continuation in effect runs, or the body when there is none, with p
// parked: one that waits on returns false, one that borrowed starts its
// phase, a continuation that finished hands the slot to the phase that
// awaited it or to the body, and a body that finished ends p.
func (p *Proc) resumes() bool {
	if p.cont == nil && p.inPhase {
		return true
	}
	p.setParked(true)
	for {
		c, body := p.cont, p.cont == nil
		if body {
			c = p.body
		}
		if !c.Continue() {
			if p.co == nil || p.co.fn == nil {
				return false
			}
			p.co.then, p.cont = p.cont, nil
			break
		}
		if body {
			p.setParked(false)
			p.end()
			return false
		}
		p.cont = nil
		if p.inPhase {
			break
		}
	}
	p.setParked(false)
	return true
}

// end retires p once its body finished: it drops the body and releases
// the coroutine p borrowed, if any.
func (p *Proc) end() {
	p.done = true
	p.body = nil
	if p.co != nil {
		p.co.release()
		p.co = nil
	}
}

// Signal is a broadcast condition: processes Wait on it and a later Fire
// wakes all of them. Once fired, Wait returns immediately. A Signal must
// only be used from inside one simulation.
type Signal struct {
	fired   bool
	waiters []*Proc
}

// Wait blocks the process until the signal fires. Returns immediately if it
// already has.
func (s *Signal) Wait(p *Proc) {
	if s.fired {
		return
	}
	s.waiters = append(s.waiters, p)
	p.Park()
}

// Enlist adds p, parked with a continuation in effect, to the waiters
// without blocking: the wake Fire schedules for p runs that continuation
// in its slot (see Proc.Await). A continuation waiting on the signal calls
// it and returns false. The signal must not have fired yet.
func (s *Signal) Enlist(p *Proc) {
	if s.fired {
		panic("sim: Enlist on a fired signal")
	}
	s.waiters = append(s.waiters, p)
}

// Fire wakes all waiters (in wait order) and makes future Waits return
// immediately. Firing twice panics.
func (s *Signal) Fire() {
	if s.fired {
		panic("sim: Signal fired twice")
	}
	s.fired = true
	for _, p := range s.waiters {
		p.Unpark()
	}
	s.waiters = nil
}

// Resource is a FIFO resource with fixed capacity (e.g. a server with a
// bounded number of service slots). Processes Acquire a unit, hold it for
// however long they model service taking, and Release it.
//
// The wait queue is a power-of-two ring buffer, so both Acquire and Release
// are O(1) even under the 16K-deep queues a 1PFPP metadata server builds —
// the former slice-shift Release made draining such a queue quadratic.
type Resource struct {
	capacity int
	inUse    int
	ring     []*Proc // waiters; len(ring) is a power of two
	head     int     // index of the longest-waiting process
	qlen     int     // number of waiters
}

// NewResource returns a resource with the given capacity (> 0).
func NewResource(capacity int) *Resource {
	if capacity <= 0 {
		panic("sim: resource capacity must be positive")
	}
	return &Resource{capacity: capacity}
}

// Acquire takes one unit, blocking the process FIFO if none is free.
func (r *Resource) Acquire(p *Proc) {
	if !r.Enlist(p) {
		p.Park()
	}
}

// Enlist takes one unit and returns true when one is free. Otherwise it
// queues p FIFO without blocking and returns false: p, parked with a
// continuation in effect, holds the unit once the Release that hands it
// over wakes p, and that continuation runs in the wake's slot (see
// Proc.Await). A continuation acquiring the resource calls it and, on
// false, returns false.
func (r *Resource) Enlist(p *Proc) bool {
	if r.inUse < r.capacity {
		r.inUse++
		return true
	}
	if r.qlen == len(r.ring) {
		r.grow()
	}
	r.ring[(r.head+r.qlen)&(len(r.ring)-1)] = p
	r.qlen++
	return false
}

// grow doubles the ring, unwrapping the live window to the front.
func (r *Resource) grow() {
	size := 2 * len(r.ring)
	if size == 0 {
		size = 8
	}
	ring := make([]*Proc, size)
	for i := 0; i < r.qlen; i++ {
		ring[i] = r.ring[(r.head+i)&(len(r.ring)-1)]
	}
	r.ring = ring
	r.head = 0
}

// Release returns one unit, handing it directly to the longest-waiting
// process if any.
func (r *Resource) Release() {
	if r.qlen > 0 {
		p := r.ring[r.head]
		r.ring[r.head] = nil
		r.head = (r.head + 1) & (len(r.ring) - 1)
		r.qlen--
		p.Unpark() // unit passes directly to p; inUse unchanged
		return
	}
	if r.inUse == 0 {
		panic("sim: Release of idle resource")
	}
	r.inUse--
}

// InUse reports the number of units currently held.
func (r *Resource) InUse() int { return r.inUse }

// QueueLen reports the number of processes waiting.
func (r *Resource) QueueLen() int { return r.qlen }
