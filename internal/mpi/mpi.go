// Package mpi implements a message-passing runtime over the simulated Blue
// Gene/P: ranks as simulation processes, communicators, eager point-to-point
// transfers routed over the torus fabric, the binomial-tree broadcast and
// gather that MPI implementations build their collectives from, and a
// barrier charged at the latency of BG/P's dedicated tree network.
//
// Semantics follow the subset of MPI the paper's I/O strategies need:
//
//   - Isend is non-blocking and eager: it completes locally after the
//     software overhead plus the time to hand the payload to the DMA — the
//     "perceived" cost Table I measures — while the payload travels the
//     torus and arrives at the receiver later.
//   - Recv matches on (source, tag) within a communicator, in arrival
//     order; AnySource receives the earliest-arrived matching message.
//   - Communicators are split collectively, exactly like MPI_Comm_split.
//
// Each rank runs as one sim.Proc; all rank code executes under the strict
// single-runnable handoff of the kernel, so runs are deterministic.
package mpi

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/data"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/trace"
)

// AnySource matches a message from any rank in Recv.
const AnySource = -1

// The MPI layer's fixed software costs on BG/P's DCMF messaging layer,
// seconds.
const (
	sendOverhead float64 = 2e-6 // per send
	recvOverhead float64 = 1e-6 // per receive
)

// Config holds the rate-dependent software cost of the MPI layer.
type Config struct {
	// LocalCopyBW is the rate at which a non-blocking send hands its buffer
	// to the messaging layer — the rate a worker "perceives". Calibrated so
	// a 400 KB field send costs ~10^4 CPU cycles, per Table I.
	LocalCopyBW float64
}

// DefaultConfig returns costs calibrated for BG/P's DCMF messaging layer.
func DefaultConfig() Config {
	return Config{LocalCopyBW: 24e9}
}

// World is an MPI job: one rank per core of its machine slice. A world
// built with NewWorld spans the whole partition (base 0); a world built
// with NewWorldOn covers one tenant's allocation, and its ranks carry the
// machine-global ids [base, base+size) so storage, fault, and trace
// attribution stay correct when several worlds share one machine.
type World struct {
	M   *machine.Machine
	K   *sim.Kernel
	cfg Config

	base   int // first global rank id; ranks[i] has id base+i
	ranks  []*Rank
	world  *Comm
	shared *laneMPI   // pset-spanning registries; pools for serial and exclusive-lane use
	lanes  []*laneMPI // per-pset resource sets; nil unless the kernel is pset-sharded

	// rec caches the kernel's trace recorder at world construction. Every
	// instrumentation point below guards on it being non-nil, which is the
	// entire cost of tracing on the disabled MPI hot path.
	rec *trace.Recorder
}

type valueEntry struct {
	v       any
	readers int
}

type barrierState struct {
	arrived int
	done    sim.Signal
}

type collKey struct {
	parent int
	seq    int
}

// laneMPI is one execution context's slice of the runtime's mutable state:
// collective registries (barriers, shared values), a communicator-id
// namespace, the object pools, and a fabric routing port. The serial kernel
// and the exclusive lane use the world's single shared set; under a
// pset-partitioned kernel every pset additionally gets a private set, so
// same-pset messages and the registries of pset-local communicators touch
// no globally shared structure and their lanes may run concurrently.
type laneMPI struct {
	barriers   map[collKey]*barrierState
	values     map[collKey]*valueEntry
	nextCommID int
	msgPool    []*message    // free list of consumed messages
	collPool   []*coll       // free list of finished collective calls
	sendPool   []*sendOp     // free list of finished sends
	port       *machine.Port // lane-private route scratch; nil on the shared set
	safe       bool          // pset's internal routes touch no other pset's links
}

func newLaneMPI() *laneMPI {
	return &laneMPI{
		barriers: make(map[collKey]*barrierState),
		values:   make(map[collKey]*valueEntry),
	}
}

// NewWorld creates the MPI runtime over a whole machine.
func NewWorld(m *machine.Machine, cfg Config) *World {
	return buildWorld(m, cfg, 0, m.Cfg.Ranks)
}

// NewWorldOn creates an MPI runtime scoped to one tenant's machine slice:
// its ranks carry the global ids the alloc owns, and rank→node resolution
// goes through the slice's own placement.
func NewWorldOn(m *machine.Machine, a *machine.Alloc, cfg Config) *World {
	if a.Machine() != m {
		panic("mpi: NewWorldOn with alloc from another machine")
	}
	return buildWorld(m, cfg, a.BaseRank(), a.Ranks())
}

func buildWorld(m *machine.Machine, cfg Config, base, size int) *World {
	w := &World{
		M:      m,
		K:      m.K,
		cfg:    cfg,
		base:   base,
		shared: newLaneMPI(),
		rec:    m.K.Recorder(),
	}
	if m.K.Sharded() && m.K.NumPartitions() == m.NumPsets() {
		safe := m.RouteSafePsets()
		w.lanes = make([]*laneMPI, m.NumPsets())
		for p := range w.lanes {
			w.lanes[p] = newLaneMPI()
			w.lanes[p].safe = safe[p]
			w.lanes[p].port = m.Net.NewPort()
		}
	}
	w.ranks = make([]*Rank, size)
	members := make([]int, size)
	for i := range w.ranks {
		node := m.NodeOfRank(base + i)
		w.ranks[i] = &Rank{w: w, id: base + i, node: node, pset: m.PsetOfNode(node)}
		w.ranks[i].want.r = w.ranks[i]
		members[i] = base + i
	}
	w.world = &Comm{w: w, id: 0, members: members, ident: true, off: base, part: w.commPart(members)}
	return w
}

// commPart returns the pset every member of a prospective communicator
// lives in, or -1 when the group spans psets or the kernel is not
// pset-sharded.
func (w *World) commPart(members []int) int {
	if w.lanes == nil || len(members) == 0 {
		return -1
	}
	p := w.rankOf(members[0]).pset
	for _, m := range members[1:] {
		if w.rankOf(m).pset != p {
			return -1
		}
	}
	return p
}

// lanePort decides where one message travels: it returns the pset lane's
// fabric port when the partitioned kernel may price and deliver the
// message on that lane, nil when it belongs on the shared engine. A message
// takes the lane when sender and receiver live in the same pset and that
// pset's internal routes are link-disjoint from every other pset's
// (machine.RouteSafePsets); the payload then touches only the pset's own
// links, injection frontier and ranks. Cross-pset messages, messages inside
// an unsafe pset, and every message of a serial kernel return nil. The
// choice is per message, not per communicator: a world-wide collective's
// tree sends ride the lanes and only its pset-crossing edges serialize.
// Matching stays correct because deliveries into a rank come only from its
// own pset's lane or from the exclusive lane, and the two never overlap.
func (w *World) lanePort(src, dst *Rank) *machine.Port {
	if w.lanes == nil || src.pset != dst.pset {
		return nil
	}
	if ln := w.lanes[src.pset]; ln.safe {
		return ln.port
	}
	return nil
}

// regFor returns the resource set owning communicator c's collective
// registries (Barrier, Shared). A communicator confined to one pset keeps
// them in that pset's set: only its own ranks touch them — on that pset's
// lane or on the exclusive lane, never from two lanes at once — so they
// need no shared section. A pset-spanning communicator keeps them in the
// world's shared set, which its ranks reach from different lanes, so every
// touch sits in a short shared section (Comm.enter).
func (w *World) regFor(c *Comm) *laneMPI {
	if c.part >= 0 {
		return w.lanes[c.part]
	}
	return w.shared
}

// poolFor returns the object pool of the execution context acting for p:
// its partition's lane while that lane runs, the shared set otherwise. The
// pools are plain free lists — an object taken from one may be returned to
// another — so only freedom from races matters, and a running lane is the
// only code touching that lane's pool.
func (w *World) poolFor(p *sim.Proc) *laneMPI {
	if w.lanes != nil && p.OnLane() {
		return w.lanes[p.Part()]
	}
	return w.shared
}

// laneCommShift namespaces communicator ids: pset p mints (p+1)<<32 | n
// while a serial kernel counts from 1, so ids stay unique and
// deterministic without cross-lane coordination.
const laneCommShift = 32

// newCommID mints a communicator id from the namespace of r's pset. Only
// that pset's lane or the exclusive lane ever touches its counter.
func (w *World) newCommID(r *Rank) int {
	if w.lanes == nil {
		w.shared.nextCommID++
		return w.shared.nextCommID
	}
	ln := w.lanes[r.pset]
	ln.nextCommID++
	return (r.pset+1)<<laneCommShift | ln.nextCommID
}

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.ranks) }

// Start starts every rank as a simulation process whose body is the
// continuation newBody returns for it (sim.Kernel.Start), without driving
// the kernel. Multi-tenant sessions start several worlds' ranks onto one
// kernel before a single Run drives them all.
func (w *World) Start(newBody func(c *Comm, r *Rank) sim.Cont) {
	for _, r := range w.ranks {
		r.proc = w.K.Start(w.part(r), fmt.Sprintf("rank%d", r.id), newBody(w.world, r))
	}
}

// Spawn starts every rank as a simulation process executing body, a
// function that blocks (sim.Kernel.GoPart), without driving the kernel.
func (w *World) Spawn(body func(c *Comm, r *Rank)) {
	for _, r := range w.ranks {
		r := r
		r.proc = w.K.GoPart(w.part(r), fmt.Sprintf("rank%d", r.id), func(p *sim.Proc) { body(w.world, r) })
	}
}

// part is the kernel partition r's process belongs to: its pset's lane,
// or -1 without lanes.
func (w *World) part(r *Rank) int {
	if w.lanes != nil {
		return r.pset
	}
	return -1
}

// Run spawns every rank executing body and drives the simulation to
// completion. It returns the kernel's error (deadlock detection) if any.
func (w *World) Run(body func(c *Comm, r *Rank)) error {
	w.Spawn(body)
	return w.K.Run()
}

// rankOf returns the Rank carrying a global (world) rank id owned by this
// world.
func (w *World) rankOf(world int) *Rank { return w.ranks[world-w.base] }

// Rank is one MPI process.
type Rank struct {
	w    *World
	id   int // world rank
	node int
	pset int // the node's pset: its partition under a sharded kernel
	proc *sim.Proc

	inbox   []*message
	want    recvWant  // the one receive a rank can have outstanding
	collSeq []commSeq // per-comm collective sequence numbers

	// SendBusyUntil tracks when this rank's messaging layer finishes
	// injecting its queued sends; consecutive Isends serialize on it.
	sendBusyUntil float64
}

// ID returns the world rank number.
func (r *Rank) ID() int { return r.id }

// Proc returns the simulation process executing this rank.
func (r *Rank) Proc() *sim.Proc { return r.proc }

// Now returns the current simulation time.
func (r *Rank) Now() float64 { return r.proc.Now() }

// World returns the runtime this rank belongs to.
func (r *Rank) World() *World { return r.w }

type message struct {
	src  int // world rank
	tag  int
	comm int
	buf  data.Buf
	val  any   // host object riding the payload (BcastValueSized), else nil
	dst  *Rank // delivery target; message implements sim.Hook
}

// Fire delivers the message to its destination rank; it runs in kernel
// context when the payload arrives off the torus. Implementing sim.Hook on
// the (pooled) message itself makes scheduling a delivery allocation-free.
func (m *message) Fire() { m.dst.deliver(m) }

// getMsg takes a message from the context's free list; Recv returns
// consumed messages with putMsg. The pool turns the per-send message+closure
// garbage — millions of objects per simulation — into a handful of live
// objects.
func (ln *laneMPI) getMsg() *message {
	if n := len(ln.msgPool); n > 0 {
		m := ln.msgPool[n-1]
		ln.msgPool = ln.msgPool[:n-1]
		return m
	}
	return &message{}
}

func (ln *laneMPI) putMsg(m *message) {
	*m = message{}
	ln.msgPool = append(ln.msgPool, m)
}

// recvWant is a rank's posted receive. A rank blocks in at most one
// receive at a time, so each rank owns one, reused by every receive. It is
// also the continuation a rank waits in Recv and RecvSeq on (sim.Cont), the
// Hook of the receives' deadline timers, and, as barrierWait, the
// continuation a rank waits in a barrier on.
type recvWant struct {
	r        *Rank
	src      int         // world rank or AnySource
	tag      int         // the posted receive's tag
	c        *Comm       // the posted receive's communicator
	got      *message    // the matched message, once delivered
	seq      RecvSeq     // the sequence the rank awaits, nil in Recv
	t0       float64     // start of RecvSeq's receive in flight
	timers   []float64   // deadlines of the armed timers yet to fire, in arming order
	posted   bool        // a receive is waiting for its match
	timed    bool        // the posted receive armed the last of timers
	timedOut bool        // the posted receive's deadline fired before a match
	paid     bool        // the resume past the receive's cost is scheduled
	bar      barStage    // how far the barrier in flight got (barrierWait)
	prev     trace.Layer // the layer RecvSeq's receive, or a traced barrier, restores
}

func (m *message) matches(comm, src, tag int) bool {
	return m.comm == comm && m.tag == tag && (src == AnySource || src == m.src)
}

// deliver runs in kernel context when a message arrives at r. A message
// r's posted receive matches wakes r; its continuation — recvWant or a
// collective's coll — pays the receive's cost in that wake's slot. Any
// other message waits in the inbox.
func (r *Rank) deliver(m *message) {
	if w := &r.want; w.posted && m.matches(w.c.id, w.src, w.tag) {
		w.got = m
		w.posted = false
		r.proc.Unpark()
		return
	}
	r.inbox = append(r.inbox, m)
}

// Continue runs in the slot of each wake of a rank waiting in Recv or
// RecvSeq. The delivery's wake schedules the resume past the receive's
// overhead and copy, where the rank would only have slept through them;
// that resume, or a deadline's wake, ends the receive. Recv's rank resumes
// there; RecvSeq's goes on to its next receive.
func (w *recvWant) Continue() bool {
	if w.got != nil && !w.paid {
		w.paid = true
		w.r.proc.UnparkAfter(w.r.recvCost(w.got.buf.Len()))
		return false
	}
	if w.seq == nil {
		return true
	}
	return w.next()
}

// arm sets the posted receive's deadline timeout seconds from now.
func (w *recvWant) arm(timeout float64) {
	t := w.r.Now() + timeout
	w.timers = append(w.timers, t)
	w.timed = true
	w.r.w.K.AtHookCtx(w.r.proc, t, w)
}

// Fire is a receive's deadline. A rank's timers are never withdrawn and
// fire in deadline order, ties in arming order, so the one firing is the
// first armed for this instant. It cancels the posted receive only when
// that receive armed it, as the last timer: a timer left by a receive that
// completed in time is stale and changes nothing.
func (w *recvWant) Fire() {
	i := slices.Index(w.timers, w.r.Now())
	w.timers = slices.Delete(w.timers, i, i+1)
	if i == len(w.timers) && w.timed && w.posted {
		w.posted = false
		w.timedOut = true
		w.r.proc.Unpark()
	}
}

// recvCost is the time a receive of n bytes occupies its rank once the
// message is there: the software overhead and the copy out of the
// messaging layer.
func (r *Rank) recvCost(n int64) float64 {
	return recvOverhead + float64(n)/r.w.cfg.LocalCopyBW
}

// take removes and returns the earliest-arrived inbox message matching
// (comm, src, tag), nil if none has arrived.
func (r *Rank) take(comm, src, tag int) *message {
	for i, m := range r.inbox {
		if m.matches(comm, src, tag) {
			r.inbox = append(r.inbox[:i], r.inbox[i+1:]...)
			return m
		}
	}
	return nil
}

// post registers r's receive of (src, tag) on c for deliver to match.
func (r *Rank) post(c *Comm, src, tag int) {
	w := &r.want
	w.src, w.tag, w.c = src, tag, c
	w.posted = true
	w.timed = false
}

// delivered returns the message deliver matched to r's posted receive.
func (r *Rank) delivered() *message {
	m := r.want.got
	r.want.got = nil
	r.want.paid = false
	return m
}

// putMsg returns a consumed message to the pool of r's execution context.
func (r *Rank) putMsg(m *message) { r.w.poolFor(r.proc).putMsg(m) }

// commSeq is one (communicator, counter) entry. A rank belongs to a handful
// of communicators at most, so a linear scan of a small slice beats the map
// these counters used to live in — they are bumped on every collective call.
type commSeq struct {
	comm int
	n    int
}

// bump returns the counter for comm and post-increments it.
func bump(list *[]commSeq, comm int) int {
	s := *list
	for i := range s {
		if s[i].comm == comm {
			n := s[i].n
			s[i].n = n + 1
			return n
		}
	}
	*list = append(s, commSeq{comm: comm, n: 1})
	return 0
}

// Request represents an outstanding non-blocking send.
type Request struct {
	doneAt float64 // when the local buffer becomes reusable
	start  float64
	rank   int // issuing world rank, for the trace track
}

// Wait blocks until the operation completes locally.
func (req *Request) Wait(p *sim.Proc) {
	prev, t0 := p.Enter(trace.LayerMPI)
	p.SleepUntil(req.doneAt)
	p.Leave(prev, trace.LayerMPI, "mpi.wait", req.rank, t0, 0)
}

// LocalTime returns the duration the operation occupied the caller — the
// "perceived" cost of the send.
func (req *Request) LocalTime() float64 { return req.doneAt - req.start }

// Comm is a communicator: an ordered group of world ranks.
type Comm struct {
	w       *World
	id      int
	members []int // world ranks; index == comm rank
	ident   bool  // members[i] == off+i: comm rank is world rank minus off
	off     int   // the contiguous run's base when ident

	// part is the single pset all members live in, -1 when the group spans
	// psets or the kernel is not pset-sharded. It decides only where the
	// communicator's collective registries live (World.regFor). Messages
	// are routed one by one from their endpoints (World.lanePort), whatever
	// communicator carries them.
	part int
}

// enter opens the shared section around a pset-spanning communicator's
// registry work (Barrier, Shared) under a partitioned kernel; for every
// other communicator, and on a serial kernel, it is a no-op. Every enter
// pairs with an exit. Point-to-point traffic never needs one: it is routed
// per message (World.lanePort).
func (c *Comm) enter(r *Rank) {
	if c.part < 0 && c.w.lanes != nil {
		r.proc.EnterShared()
	}
}

func (c *Comm) exit(r *Rank) {
	if c.part < 0 && c.w.lanes != nil {
		r.proc.ExitShared()
	}
}

// identOff reports whether members is a contiguous ascending run (base+i at
// index i), letting a world communicator — at any tenant base — and any
// split that reproduces one translate ranks without the binary search.
func identOff(members []int) (off int, ok bool) {
	if len(members) == 0 {
		return 0, false
	}
	off = members[0]
	for i, m := range members {
		if m != off+i {
			return 0, false
		}
	}
	return off, true
}

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.members) }

// Rank returns r's rank within the communicator, or -1 if not a member.
func (c *Comm) Rank(r *Rank) int {
	if c.ident {
		if i := r.id - c.off; i >= 0 && i < len(c.members) {
			return i
		}
		return -1
	}
	// members is sorted by construction; binary search.
	i := sort.SearchInts(c.members, r.id)
	if i < len(c.members) && c.members[i] == r.id {
		return i
	}
	return -1
}

// WorldRank translates a communicator rank to a world rank.
func (c *Comm) WorldRank(commRank int) int { return c.members[commRank] }

// Isend posts a non-blocking eager send of buf to communicator rank dst with
// the given tag. It returns after the software overhead; the returned
// request completes when the payload has been handed off locally. The
// payload arrives at the destination after traversing the torus.
func (c *Comm) Isend(r *Rank, dst, tag int, buf data.Buf) *Request {
	req := &Request{rank: r.id}
	r.proc.AwaitNow(c.StartIsend(r, dst, tag, buf, req))
	return req
}

// StartIsend begins r's Isend of buf to communicator rank dst and returns
// it as the continuation r awaits; Isend awaits it at once. The call's
// software overhead ends as Sleep would end it: at once when Sleep's fast
// path allows, otherwise in the resume Sleep would have scheduled, where
// the payload moves. req, when not nil, gets the request's times. A send
// whose route needs a shared section borrows a phase of the rank that
// enters the section and awaits the rest (enterShared).
func (c *Comm) StartIsend(r *Rank, dst, tag int, buf data.Buf, req *Request) sim.Cont {
	op := c.getSend(r, dst)
	op.tag, op.buf, op.req, op.isend = int32(tag), buf, req, true
	return op
}

// Send is a blocking send: Isend followed by Wait, costed identically. Its
// two waits — the software overhead, then local completion — are one
// resume of the rank, with the call as its continuation. Unlike an
// Isend-then-Wait run (StartIsendWaitSeq) it always waits through the
// calendar: a send whose local completion falls at the overhead's end
// resumes behind the events already due then, where the run carries on
// at once.
func (c *Comm) Send(r *Rank, dst, tag int, buf data.Buf) {
	c.newSend(r, dst, tag, buf, nil).wait()
}

// sendOp is one send — Isend's, Send's or a collective hop's — from the
// call's start through its software overhead, and for all but Isend
// through the wait for local completion that follows. For an
// Isend-then-Wait run it is the whole sequence: each of its sends in turn
// (seq.go).
type sendOp struct {
	r       *Rank
	dst     *Rank
	comm    int
	buf     data.Buf
	val     any         // host object riding the payload (BcastValueSized), else nil
	seq     SendSeq     // an Isend-then-Wait run's sends, else nil
	req     *Request    // an Isend's request to fill, or nil
	i, n    int32       // the run: the send in flight, of n
	tag     int32       // every tag in use stays far below 1<<31
	stage   seqStage    // the run: how far the send in flight got
	shared  bool        // the send runs in a shared section
	posted  bool        // a blocking send's payload moved; the next wake ends the wait
	isend   bool        // the op is an Isend (StartIsend): it ends once the payload moved
	looping bool        // the run: a phase of the rank enters its shared sections (enterShared)
	prev    trace.Layer // the caller's layer, restored on return
	start   float64     // the call's start
	doneAt  float64     // local completion, once posted
	t0      float64     // start of the run's wait (tracing only)
}

// newSend opens a send of buf to communicator rank dst with a send op from
// the pool of r's execution context: it routes the message and, when the
// lanes may not carry it, enters a shared section before the call's start
// is read.
func (c *Comm) newSend(r *Rank, dst, tag int, buf data.Buf, val any) *sendOp {
	op := c.getSend(r, dst)
	op.tag, op.buf, op.val = int32(tag), buf, val
	op.prev, _ = r.proc.Enter(trace.LayerMPI)
	if op.shared {
		r.proc.EnterShared()
	}
	op.start = r.Now()
	return op
}

// getSend takes a send op to communicator rank dst from the pool of r's
// execution context and routes it.
func (c *Comm) getSend(r *Rank, dst int) *sendOp {
	if dst < 0 || dst >= len(c.members) {
		panic(fmt.Sprintf("mpi: send to rank %d of %d-rank comm", dst, len(c.members)))
	}
	op := r.w.poolFor(r.proc).getSend()
	op.r, op.comm = r, c.id
	op.dst = r.w.rankOf(c.members[dst])
	op.shared = r.w.lanes != nil && r.w.lanePort(r, op.dst) == nil
	return op
}

func (ln *laneMPI) getSend() *sendOp {
	if n := len(ln.sendPool); n > 0 {
		op := ln.sendPool[n-1]
		ln.sendPool = ln.sendPool[:n-1]
		return op
	}
	return &sendOp{}
}

// release returns a finished send op to the pool.
func (op *sendOp) release() {
	pool := op.r.w.poolFor(op.r.proc)
	*op = sendOp{}
	pool.sendPool = append(pool.sendPool, op)
}

// transmit moves the payload once the software overhead ended: the buffer
// handoff, serialized on r's local messaging pipeline, then DMA injection,
// the fabric, and the delivery at the destination. It is the one place a
// payload enters the fabric.
func (op *sendOp) transmit() {
	r, n := op.r, op.buf.Len()
	copyStart := max(r.Now(), r.sendBusyUntil)
	op.doneAt = copyStart + float64(n)/r.w.cfg.LocalCopyBW
	r.sendBusyUntil = op.doneAt
	var injDone, arrival float64
	if port := r.w.lanePort(r, op.dst); port != nil {
		injDone = port.Inject(op.doneAt, r.node, n)
		arrival = port.Transfer(injDone, r.node, op.dst.node, n)
	} else {
		injDone = r.w.M.Net.Inject(op.doneAt, r.node, n)
		arrival = r.w.M.Net.Transfer(injDone, r.node, op.dst.node, n)
	}
	msg := r.w.poolFor(r.proc).getMsg()
	*msg = message{src: r.id, tag: int(op.tag), comm: op.comm, buf: op.buf, val: op.val, dst: op.dst}
	r.w.K.AtHookCtx(op.dst.proc, arrival, msg)
}

// post runs the rest of Isend once the overhead ended: it moves the
// payload, then closes the call.
func (op *sendOp) post() {
	op.transmit()
	op.close("mpi.isend", op.doneAt)
}

// close ends the call: it leaves the call's shared section and records the
// call as span name from its start to end.
func (op *sendOp) close(name string, end float64) {
	r := op.r
	if op.shared {
		r.proc.ExitShared()
	}
	if r.w.rec != nil {
		n := op.buf.Len()
		rec := r.proc.Rec()
		rec.Span(trace.LayerMPI, name, r.id, op.start, end, n)
		rec.Add(trace.LayerMPI, "mpi.msgs", 1)
		rec.Add(trace.LayerMPI, "mpi.bytes", n)
		r.w.K.SetLayer(op.prev)
	}
}

// wait runs a blocking send from the rank's own process: the rank waits
// out both of the send's waits parked with op as its continuation, then
// the call closes.
func (op *sendOp) wait() {
	op.r.proc.AwaitAfter(sendOverhead, op)
	op.end()
}

// end closes a blocking send at local completion and frees op.
func (op *sendOp) end() {
	op.close("mpi.send", op.r.Now())
	op.release()
}

// Continue runs in the slot of one of the rank's wakes (sim.Cont). For a
// blocking send that is the overhead's end: it moves the payload there and
// schedules the rank's resume at local completion, always through the
// calendar. An Isend-then-Wait run's op runs the sequence on from the wake
// (next), borrows a phase for a send that needs a shared section, and
// frees itself when the run ended. An Isend's op runs the call on
// (isendNext) from its start or its overhead's end.
func (op *sendOp) Continue() bool {
	if op.isend {
		return op.isendNext()
	}
	if op.seq != nil {
		if !op.next() {
			return false
		}
		switch {
		case op.looping:
		case op.stage == seqEntered:
			op.r.proc.Borrow(op.enterShared)
			return false
		default:
			op.release()
		}
		return true
	}
	if op.posted {
		return true
	}
	op.posted = true
	p := op.r.proc
	op.transmit()
	p.UnparkAfter(op.doneAt - p.Now())
	return false
}

// isendNext runs an Isend on from its start, from the phase that entered
// its shared section, or from the wake at its overhead's end, and reports
// whether the call ended. It frees the op once the call ended outside the
// phase: a phase that finished it hands the slot back to the caller, whose
// next call frees it.
func (op *sendOp) isendNext() bool {
	p := op.r.proc
	switch op.stage {
	case seqNext:
		op.prev, _ = p.Enter(trace.LayerMPI)
		if op.shared {
			op.stage = seqEntered
			p.Borrow(op.enterShared)
			return false
		}
		fallthrough
	case seqEntered:
		op.start = op.r.Now()
		op.stage = seqOverhead
		if !p.SleepFast(sendOverhead) {
			p.UnparkAfter(sendOverhead)
			return false
		}
		fallthrough
	case seqOverhead:
		op.post()
		if op.req != nil {
			op.req.start, op.req.doneAt = op.start, op.doneAt
		}
		op.stage = seqLocal
	}
	if !op.looping {
		op.release()
	}
	return true
}

// Recv blocks until a message with the given source (comm rank, or
// AnySource) and tag arrives, and returns its payload and source comm rank.
// It touches only rank-private state — the inbox and the posted want — so
// it needs no shared section on any communicator: deliveries into r come
// from r's own lane or the exclusive lane, which never run at once.
func (c *Comm) Recv(r *Rank, src, tag int) (data.Buf, int) {
	if r.want.posted {
		panic("mpi: rank has a receive already outstanding")
	}
	prev, t0 := r.proc.Enter(trace.LayerMPI)
	srcWorld := c.srcWorld(src)
	var buf data.Buf
	// First match against already-arrived messages, in arrival order.
	if got := r.take(c.id, srcWorld, tag); got != nil {
		buf, srcWorld = got.buf, got.src
		r.putMsg(got) // consumed: back to the pool before yielding
		r.proc.Sleep(r.recvCost(buf.Len()))
	} else {
		r.post(c, srcWorld, tag)
		r.proc.Await(&r.want)
		got := r.delivered()
		buf, srcWorld = got.buf, got.src
		r.putMsg(got)
	}
	r.proc.Leave(prev, trace.LayerMPI, "mpi.recv", r.id, t0, buf.Len())
	return buf, c.rankOfWorld(srcWorld)
}

// srcWorld translates a receive's source comm rank, or AnySource, to a
// world rank.
func (c *Comm) srcWorld(src int) int {
	if src == AnySource {
		return AnySource
	}
	if src < 0 || src >= len(c.members) {
		panic(fmt.Sprintf("mpi: receive from rank %d of %d-rank comm", src, len(c.members)))
	}
	return c.members[src]
}

func (c *Comm) rankOfWorld(world int) int {
	if c.ident {
		if i := world - c.off; i >= 0 && i < len(c.members) {
			return i
		}
		return -1
	}
	i := sort.SearchInts(c.members, world)
	if i < len(c.members) && c.members[i] == world {
		return i
	}
	return -1
}

// Internal tag space for collectives; user code should use tags below 1<<20.
const collTag = 1 << 20

func (c *Comm) nextCollTag(r *Rank) int {
	return collTag + bump(&r.collSeq, c.id)
}

// HWBarrierLatency is the latency of Blue Gene/P's dedicated tree-based
// barrier network (~1.3us once the last rank arrives).
const HWBarrierLatency = 1.3e-6

// Lookahead returns the conservative lookahead for running worlds on m's
// pset-partitioned kernel: the smallest virtual latency of the two
// channels between psets, the torus (the machine's Lookahead) and the
// barrier network, whose release reaches a pset-spanning barrier's waiters
// HWBarrierLatency after the last arrival.
func Lookahead(m *machine.Machine) float64 { return min(m.Lookahead(), HWBarrierLatency) }

// Barrier blocks until every rank of the communicator has entered it. Blue
// Gene/P has a dedicated tree-based collective network for barriers, so the
// model charges a small constant once the last rank arrives instead of
// simulating a software message pattern.
func (c *Comm) Barrier(r *Rank) { r.proc.AwaitNow(c.StartBarrier(r)) }

// StartBarrier begins r's Barrier on c and returns it as the continuation
// r awaits; Barrier awaits it at once. Its state is the rank's recvWant
// under another name, barrierWait, since a rank in a barrier has no
// receive outstanding.
func (c *Comm) StartBarrier(r *Rank) sim.Cont {
	b := (*barrierWait)(&r.want)
	b.c, b.bar = c, barStart
	return b
}

// NeedsSection reports whether c's registry work (Barrier, Shared) runs in
// a shared section: c spans psets on a pset-sharded kernel. A continuation
// calls Shared on such a communicator from a phase it borrows.
func (c *Comm) NeedsSection() bool { return c.part < 0 && c.w.lanes != nil }

// enterSection runs a barrier on from its start in a phase of the rank
// (sim.Proc.Borrow), inside the shared section that spans its wait and
// its release latency. A pset-spanning barrier's release fires from the
// exclusive lane, and a zero-delay wake into a lane could land in that
// lane's past, so the waiters resume on the exclusive lane and leave it
// only after the latency.
func (b *barrierWait) enterSection(p *sim.Proc) {
	p.EnterShared()
	p.AwaitNow(b)
	p.ExitShared()
}

// arrive counts r into its next barrier on c. The last arrival completes
// the barrier, releases the waiters and gets nil; every other arrival gets
// the barrier to wait on.
func (c *Comm) arrive(r *Rank) *barrierState {
	key := collKey{parent: c.id, seq: bump(&r.collSeq, c.id)}
	reg := c.w.regFor(c)
	st, ok := reg.barriers[key]
	if !ok {
		st = &barrierState{}
		reg.barriers[key] = st
	}
	st.arrived++
	if st.arrived < len(c.members) {
		return st
	}
	delete(reg.barriers, key) // complete; reclaim
	st.done.Fire()
	return nil
}

// barStage is how far a rank's barrier got.
type barStage uint8

const (
	barStart   barStage = iota // the call starts
	barEntered                 // its shared section is entered; the rank arrives
	barRelease                 // the rank waits for the last arrival's release
	barLatency                 // the resume past the barrier network's latency is due
	barDone                    // the call ended
)

// barrierWait is a rank's barrier in flight, the continuation it waits in
// a barrier on: the rank's recvWant under another name. A rank that is
// not the last to arrive enlists on the barrier's Signal, and the release
// wakes it in the slot Signal.Fire drew for it, where the rank's own code
// would sleep through the barrier network's latency: it schedules the
// rank's resume exactly where that Sleep would, and the barrier ends
// there. That Sleep never takes the fast path: the last arriver's own
// resume is already queued for that instant. The last arriver sleeps the
// latency as Sleep would: in place when the fast path allows, otherwise
// through the resume Sleep would have scheduled.
type barrierWait recvWant

// Continue implements sim.Cont.
func (b *barrierWait) Continue() bool {
	r, c := b.r, b.c
	p := r.proc
	switch b.bar {
	case barStart:
		if len(c.members) == 1 {
			b.bar = barDone
			return true
		}
		c.mustRank(r)
		if r.w.rec != nil {
			b.prev, b.t0 = p.Enter(trace.LayerMPI)
		}
		b.bar = barEntered
		if c.NeedsSection() {
			p.Borrow(b.enterSection)
			return false
		}
		fallthrough
	case barEntered:
		if st := c.arrive(r); st != nil {
			st.done.Enlist(p)
			b.bar = barRelease
			return false
		}
		b.bar = barLatency
		if !p.SleepFast(HWBarrierLatency) {
			p.UnparkAfter(HWBarrierLatency)
			return false
		}
	case barRelease:
		b.bar = barLatency
		p.UnparkAfter(HWBarrierLatency)
		return false
	case barDone:
		return true
	}
	b.bar = barDone
	if r.w.rec != nil {
		p.Leave(b.prev, trace.LayerMPI, "mpi.barrier", r.id, b.t0, 0)
	}
	return true
}

// Shared returns a value computed once per (communicator, call-site
// sequence). Rank code that derives an identical pure function of
// collectively-known data on every rank (layout headers, file-domain
// tables) calls Shared so the host computes it once; receivers alias the
// same object and must treat it as read-only. No simulated time is charged:
// in a real MPI program every rank computes its own copy concurrently, so
// the wall-clock cost is that of one rank's computation, which the model
// folds into the surrounding operation costs. Every rank of the
// communicator must call Shared at the same point in its collective
// sequence.
func (c *Comm) Shared(r *Rank, compute func() any) any {
	c.mustRank(r)
	if len(c.members) == 1 {
		return compute()
	}
	key := collKey{parent: c.id, seq: bump(&r.collSeq, c.id)}
	c.enter(r)
	reg := c.w.regFor(c)
	e, ok := reg.values[key]
	if !ok {
		e = &valueEntry{v: compute()}
		reg.values[key] = e
	}
	e.readers++
	if e.readers == len(c.members) {
		delete(reg.values, key)
	}
	c.exit(r)
	return e.v
}

func (c *Comm) mustRank(r *Rank) int {
	me := c.Rank(r)
	if me < 0 {
		panic(fmt.Sprintf("mpi: rank %d is not a member of comm %d", r.id, c.id))
	}
	return me
}
