// Partitioned parallel dispatch: a conservative (CMB-style) sharded mode
// for the kernel.
//
// EnableSharding splits the kernel into partitions — by convention one per
// pset, the unit the machine model's I/O tree already isolates — each with
// its own calendar queue, sequence counter, clock, and xrand stream.
// Events whose effects stay inside one partition (intra-pset MPI traffic,
// same-node wakeups, per-rank compute) live in that partition's calendar
// and are dispatched by parallel lane workers inside conservative windows.
// Everything that touches shared simulation state — storage, the
// registries of pset-spanning collectives, cross-pset fabric transfers —
// runs on a single globally-ordered "exclusive" lane backed by the
// kernel's original calendar, entered by processes through
// EnterShared/ExitShared.
//
// Ordering model. Every event carries a key (t, part, localSeq) packed
// into its sequence word (see partShift): the exclusive lane's events keep
// part bits of zero, so the untouched eventLess comparator already yields
// the sharded tie-break order, and serial mode is bit-for-bit the
// historical kernel. The coordinator alternates two phases:
//
//   - Exclusive: while the globally minimal key belongs to the shared
//     calendar or to a suspended shared section, dispatch exactly in key
//     order, one item at a time, with the same baton protocol as the
//     serial kernel. This reproduces the serial kernel's semantics for
//     every event that can observe shared state.
//
//   - Window: when the minimal key is a partition-local event, all lanes
//     with work below bound = min(G + L, next exclusive key) run in
//     parallel, where G is the global minimum and L the model-derived
//     lookahead (the minimum virtual latency any cross-partition effect
//     pays). Lane events of different partitions touch disjoint state, so
//     their relative order is unobservable; within a lane the order is
//     exactly the serial projection. The coordinator shares a window's
//     lanes with helper goroutines through an atomic handoff (crew.go).
//
// A process that reaches shared state from a lane (EnterShared) suspends
// its whole lane and re-runs on the exclusive lane at its segment-origin
// key — the position where the serial kernel would have dispatched the
// same code — which is what makes sharded runs byte-identical to serial
// ones (pinned by goldens in internal/exp). Every cross-partition effect is
// made from a shared section: the exclusive lane may address any partition
// directly because all lanes are quiescent there, while a lane may insert
// only into its own partition (insertLocal panics otherwise).
package sim

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/trace"
	"repro/internal/xrand"
)

// partShift packs a partition tag into bits [40,56) of an event's sequence
// word, below the trace-layer bits. Partition p's events carry tag p+1, so
// the exclusive lane (tag 0) wins timestamp ties — and the serial kernel's
// plain counter, which stays far below 1<<40, is unchanged. The packing
// means eventLess's (t, seq&seqMask) compare is (t, partition, local seq)
// lexicographic order with no comparator change.
const (
	partShift = 40
	localMask = 1<<partShift - 1
	// maxParts bounds the partition count so the tag fits its field.
	maxParts = 1<<(layerShift-partShift) - 1
)

// advRec is one clock-advance attribution record: a lane (or the exclusive
// dispatcher) moved its clock to t on behalf of layer, dispatching the
// event with origin stamp (parent, idx) or eliding its resume. The lanes'
// logs are replayed against a single global clock in (t, stamp) order, the
// serial dispatch order (see replay), which restores the telescoping
// property — attributed layer time sums exactly to the makespan — that
// independent per-lane clocks break, and charges each interval to the
// layer the serial kernel charges it to.
type advRec struct {
	t      float64
	layer  trace.Layer
	parent *chainNode
	idx    uint64
}

// pendReq is a suspended shared section: process p reached EnterShared
// from its lane and waits to re-run on the exclusive lane at its
// segment-origin key (t, chain) — the dispatch position where the serial
// kernel would have executed the same code inline. node is the segment's
// chainNode (the admission adopts it so inserts before and after the
// suspension share one origin), nextIdx the surviving insert rank and
// layer the current layer at the suspension, which the admission restores.
type pendReq struct {
	t       float64
	node    *chainNode
	nextIdx uint64
	layer   trace.Layer
	p       *Proc
}

// partition is one shard of the kernel: a lane of its own (calendar,
// sequence counter, clock) and RNG stream, plus the window bookkeeping.
type partition struct {
	lane
	idx int
	rng *xrand.RNG

	active bool      // a lane worker is currently running this partition
	bound  event     // lane may dispatch strictly below this key (h nil)
	nsusp  int       // suspended shared sections (0 or 1)
	pend   []pendReq // suspensions, collected by the coordinator at join

	heapPos int   // index in the coordinator's head heap, -1 if absent
	head    event // calendar head as of the last heapFix: the heap key

	panicked any // a process panic on this lane, until the window's join re-raises it
}

// shard holds the kernel's sharded-mode state.
type shard struct {
	parts     []*partition
	lookahead float64 // min virtual latency of any cross-partition effect
	workers   int     // lane workers per window: the coordinator and its helpers
	inWindow  bool    // a window's lanes are running
	heap      []*partition
	pends     []pendReq // pending shared sections, min-heap by key
	advClock  float64   // global attribution replay frontier (tracing only)
	rerootDue bool      // the origin chains await a re-root (see runSharded)

	// Window scratch, reused across windows: the eligible lanes in
	// partition-index order and the heap-walk stack.
	active []*partition
	stack  []int
	crew   crew // helper lane workers, live during a run (see crew.go)

	windows, parallel, suspensions uint64 // see ShardStats
}

// ShardStats counts where the partitioned kernel did its work. Every count
// is a function of the event set alone — not of the worker count or
// GOMAXPROCS — so the counts make a hardware-independent regression gate.
type ShardStats struct {
	LaneEvents      uint64 // events dispatched on partition lanes
	ExclusiveEvents uint64 // events dispatched on the exclusive lane
	Windows         uint64 // conservative windows opened
	ParallelWindows uint64 // windows with more than one eligible lane
	Suspensions     uint64 // shared sections a lane process suspended into
}

// ShardStats returns the partitioned kernel's dispatch counters; ok is
// false on a serial kernel.
func (k *Kernel) ShardStats() (st ShardStats, ok bool) {
	sh := k.sh
	if sh == nil {
		return st, false
	}
	for _, pt := range sh.parts {
		st.LaneEvents += pt.ndisp
	}
	st.ExclusiveEvents = k.ndisp
	st.Windows, st.ParallelWindows, st.Suspensions = sh.windows, sh.parallel, sh.suspensions
	return st, true
}

// Sharded reports whether the kernel runs in partitioned mode.
func (k *Kernel) Sharded() bool { return k.sh != nil }

// NumPartitions returns the partition count, 0 in serial mode.
func (k *Kernel) NumPartitions() int {
	if k.sh == nil {
		return 0
	}
	return len(k.sh.parts)
}

// EnableSharding switches the kernel into partitioned mode with nparts
// partitions, at most workers lane workers per window (the coordinator
// and up to workers-1 helper goroutines, no more than GOMAXPROCS in all),
// and the given conservative lookahead (seconds; the minimum virtual
// latency any cross-partition effect pays, see the mpi package's
// Lookahead). Each partition gets an independent xrand stream split from
// seed. Must be called before Run and before any process is spawned;
// events already scheduled stay on the shared (exclusive) calendar. A run
// with a trace recorder attached uses one window worker whatever workers
// says (see startCrew); dispatch order is identical either way.
func (k *Kernel) EnableSharding(nparts, workers int, lookahead float64, seed uint64) {
	if k.running {
		panic("sim: EnableSharding while running")
	}
	if k.sh != nil {
		panic("sim: EnableSharding called twice")
	}
	if len(k.reg) > 0 {
		panic("sim: EnableSharding after processes were spawned")
	}
	if nparts < 1 || nparts > maxParts {
		panic(fmt.Sprintf("sim: partition count %d out of range [1,%d]", nparts, maxParts))
	}
	if !(lookahead > 0) {
		panic(fmt.Sprintf("sim: lookahead must be positive, got %v", lookahead))
	}
	if workers < 1 {
		workers = 1
	}
	root := xrand.New(seed)
	k.sh = &shard{lookahead: lookahead, workers: workers, parts: make([]*partition, nparts)}
	for i := range k.sh.parts {
		k.sh.parts[i] = &partition{lane: lane{now: k.now}, idx: i, rng: root.Split(), heapPos: -1}
	}
	k.eachLane(func(ln *lane) { ln.ctx.initRoot() })
}

// PartRNG returns partition part's private xrand stream, so partitioned
// model components can draw randomness from lane context without touching
// a shared stream. Panics in serial mode.
func (k *Kernel) PartRNG(part int) *xrand.RNG {
	return k.sh.parts[part].rng
}

// AtHookCtx schedules h at absolute time t on the calendar owned by the
// execution context currently driving p: p's partition while that lane is
// running a window (the caller then is that lane — deliveries and wakeups
// always target objects of the partition being dispatched), the shared
// calendar otherwise. One call site is thereby correct from lane,
// exclusive, and serial contexts alike.
func (k *Kernel) AtHookCtx(p *Proc, t float64, h Hook) {
	if p.OnLane() {
		k.insertLocal(p.part, t, h)
		return
	}
	k.insert(t, h)
}

// AfterHookCtx schedules h d seconds past the clock of the execution
// context currently driving p (see AtHookCtx).
func (k *Kernel) AfterHookCtx(p *Proc, d float64, h Hook) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	k.AtHookCtx(p, p.Now()+d, h)
}

// insertLocal places an event in a partition's calendar with a key packed
// from the partition tag and its local sequence counter, stamped with the
// origin chain of the inserting context: the partition's own running
// segment from lane context, the exclusive segment otherwise. Lane code may
// insert only into its own partition: another lane may be running ahead of
// t, so a cross-partition effect must come from a shared section.
func (k *Kernel) insertLocal(pt *partition, t float64, h Hook) {
	if !pt.active && k.sh.inWindow {
		panic(fmt.Sprintf("sim: lane insert into partition %d; cross-partition effects must run in a shared section", pt.idx))
	}
	ctx := &k.ctx
	if pt.active {
		ctx = &pt.ctx
	}
	k.push(&pt.lane, uint64(pt.idx+1)<<partShift, ctx, t, h)
	if !pt.active && (pt.heapPos < 0 || t < pt.head.t) {
		// Exclusive context: the lane head may have moved; keep the
		// coordinator's heap current. The new event carries the partition's
		// newest seq, so unless it is strictly earlier than the head it
		// sorts after it and the heap key is unchanged. Lane context defers
		// to the join.
		k.heapFix(pt)
	}
}

// ---- coordinator head heap -------------------------------------------------
//
// A positional binary min-heap over partitions keyed by their calendar
// head times, so the coordinator and the exclusive fast paths find the
// earliest partition-local time in O(1) and maintain it in O(log P). Each
// entry's head is cached in partition.head at heapFix. Lanes mutate their
// own calendars during a window; the coordinator refreshes their entries at
// the join.
//
// Equal-time heads sit in arbitrary relative order: ordering them would
// walk origin chains, which in a symmetric machine (every pset running the
// same schedule) stay tied back to the run's start. Only times are needed
// by the window bound and the fast paths; the two questions that depend on
// genealogy — whether a head precedes an exclusive item at its time, and
// which heads lie below a window bound — compare every tied head in full
// (headBefore, eligible), and heap order still prunes every later subtree.

func (k *Kernel) heapLess(a, b *partition) bool { return a.head.t < b.head.t }

func (k *Kernel) heapSwap(i, j int) {
	h := k.sh.heap
	h[i], h[j] = h[j], h[i]
	h[i].heapPos = i
	h[j].heapPos = j
}

func (k *Kernel) heapUp(i int) {
	h := k.sh.heap
	for i > 0 {
		parent := (i - 1) / 2
		if !k.heapLess(h[i], h[parent]) {
			break
		}
		k.heapSwap(i, parent)
		i = parent
	}
}

func (k *Kernel) heapDown(i int) {
	h := k.sh.heap
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h) && k.heapLess(h[l], h[small]) {
			small = l
		}
		if r < len(h) && k.heapLess(h[r], h[small]) {
			small = r
		}
		if small == i {
			return
		}
		k.heapSwap(i, small)
		i = small
	}
}

// heapFix re-sites pt after its head changed (or appeared / vanished).
func (k *Kernel) heapFix(pt *partition) {
	sh := k.sh
	var has bool
	pt.head, has = pt.cal.peek()
	if pt.heapPos < 0 {
		if !has {
			return
		}
		pt.heapPos = len(sh.heap)
		sh.heap = append(sh.heap, pt)
		k.heapUp(pt.heapPos)
		return
	}
	if !has {
		i := pt.heapPos
		last := len(sh.heap) - 1
		k.heapSwap(i, last)
		sh.heap = sh.heap[:last]
		pt.heapPos = -1
		if i < last {
			k.heapDown(i)
			k.heapUp(i)
		}
		return
	}
	k.heapDown(pt.heapPos)
	k.heapUp(pt.heapPos)
}

// heapMin returns the earliest partition head time, if any partition has
// pending events.
func (k *Kernel) heapMin() (float64, bool) {
	if len(k.sh.heap) == 0 {
		return 0, false
	}
	return k.sh.heap[0].head.t, true
}

// headsUpTo calls visit on every partition whose head time is at most t,
// until visit returns false. It walks the head heap from the root and
// prunes every subtree whose root is later than t — heap order puts its
// descendants later too — so the walk costs about the number of heads
// visited, not the partition count.
func (k *Kernel) headsUpTo(t float64, visit func(pt *partition) bool) {
	sh := k.sh
	stack := append(sh.stack[:0], 0)
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if i >= len(sh.heap) || sh.heap[i].head.t > t {
			continue
		}
		if !visit(sh.heap[i]) {
			break
		}
		stack = append(stack, 2*i+1, 2*i+2)
	}
	sh.stack = stack
}

// headBefore reports whether some partition head precedes key x. Heads at
// x's time are compared in full.
func (k *Kernel) headBefore(x event) bool {
	if t, ok := k.heapMin(); !ok || t != x.t {
		return ok && t < x.t
	}
	found := false
	k.headsUpTo(x.t, func(pt *partition) bool {
		found = keyLess(pt.head, x)
		return !found
	})
	return found
}

// ---- pending shared sections ----------------------------------------------

func pendLess(a, b pendReq) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return chainLess(a.node.parent, a.node.idx, b.node.parent, b.node.idx)
}

func (k *Kernel) pendPush(r pendReq) {
	sh := k.sh
	sh.pends = append(sh.pends, r)
	i := len(sh.pends) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !pendLess(sh.pends[i], sh.pends[parent]) {
			break
		}
		sh.pends[i], sh.pends[parent] = sh.pends[parent], sh.pends[i]
		i = parent
	}
}

func (k *Kernel) pendPop() pendReq {
	sh := k.sh
	top := sh.pends[0]
	last := len(sh.pends) - 1
	sh.pends[0] = sh.pends[last]
	sh.pends = sh.pends[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && pendLess(sh.pends[l], sh.pends[small]) {
			small = l
		}
		if r < last && pendLess(sh.pends[r], sh.pends[small]) {
			small = r
		}
		if small == i {
			break
		}
		sh.pends[i], sh.pends[small] = sh.pends[small], sh.pends[i]
		i = small
	}
	return top
}

// xMin returns the minimal exclusive-lane key: the shared calendar head or
// the earliest pending shared section. kind: 0 none, 1 shared event,
// 2 pending section.
func (k *Kernel) xMin() (event, int) {
	ev, ok := k.cal.peek()
	kind := 0
	if ok {
		kind = 1
	}
	if len(k.sh.pends) > 0 {
		p := k.sh.pends[0]
		// The pend's key is its segment-origin event's key: the position
		// where the serial kernel dispatched the resume that led here.
		pk := event{t: p.t, parent: p.node.parent, idx: p.node.idx}
		if kind == 0 || keyLess(pk, ev) {
			return pk, 2
		}
	}
	return ev, kind
}

// frontier returns the earliest pending item's time — shared calendar,
// suspended sections and partition heads — or +Inf when there is none.
// Must only be called from exclusive context (lanes quiescent), so the
// heap and pend state are stable.
func (k *Kernel) frontier() float64 {
	t := math.Inf(1)
	if xk, kind := k.xMin(); kind != 0 {
		t = xk.t
	}
	if h, ok := k.heapMin(); ok && h < t {
		t = h
	}
	return t
}

// ---- sharded run loop -------------------------------------------------------

// runSharded is the coordinator: it alternates exclusive dispatch (shared
// events and suspended sections, in exact global key order) with parallel
// lane windows, until nothing remains within the horizon.
func (k *Kernel) runSharded() {
	sh := k.sh
	// Adopt any pre-run partition inserts (process spawns).
	for _, pt := range sh.parts {
		k.heapFix(pt)
	}
	// Helper lane workers live for this run, which returns only once they
	// have exited.
	k.startCrew()
	defer k.stopCrew()
	for iter := uint64(0); ; iter++ {
		if iter&255 == 0 || sh.rerootDue {
			// Quiescent point: no lane running, no process holding the
			// baton. Replay the advance records that became final, and
			// compact the origin chains before they accumulate — at the
			// first such point where no record awaits its replay.
			if k.rec != nil {
				k.replay(k.frontier())
			}
			sh.rerootDue = k.chainMade() > chainRerootGoal
			if sh.rerootDue && k.unreplayed() == 0 {
				k.rerootChains()
				sh.rerootDue = false
			}
		}
		if p := k.xNext(nil); p != nil {
			// A process is due: drive the exclusive lane until it runs dry.
			k.drive(nil, p)
			continue
		}
		head, ok := k.heapMin()
		if !ok || head > k.horizon {
			return
		}
		xk, xkind := k.xMin()
		k.runWindow(head, xk, xkind)
	}
}

// xNext dispatches exclusive items until one resumes a process —
// returned, possibly self — or no exclusive item may run: the global
// minimum is partition-local (a window is due) or nothing remains within
// the horizon, and it returns nil.
func (k *Kernel) xNext(self *Proc) *Proc {
	for {
		xk, xkind := k.xMin()
		if !k.canExclusive(xk, xkind) {
			return nil
		}
		if xkind == 2 {
			return k.admit()
		}
		if p := k.dispatch(&k.lane, xk, self); p != nil {
			return p
		}
	}
}

// canExclusive reports whether the exclusive item xk may dispatch now: it
// exists, lies within the horizon, and no partition head precedes it.
func (k *Kernel) canExclusive(xk event, xkind int) bool {
	return xkind != 0 && xk.t <= k.horizon && !k.headBefore(xk)
}

// admit hands the exclusive lane to the earliest suspended shared section:
// it adopts the section's origin segment and returns the process to resume.
func (k *Kernel) admit() *Proc {
	req := k.pendPop()
	k.ctx.adopt(req.node, req.nextIdx)
	k.layer = req.layer
	pt := req.p.part
	pt.nsusp--
	// The process continues at its own (lane) clock; the window bound
	// guaranteed no exclusive item in between, so time is monotone.
	if pt.now > k.now {
		k.now = pt.now
	}
	k.sh.suspensions++
	k.nwoken++
	return req.p
}

// runWindow computes the conservative bound from the earliest partition
// head time and the next exclusive item, runs every eligible lane below it,
// then joins: collects suspensions and refreshes the head heap.
func (k *Kernel) runWindow(head float64, xk event, xkind int) {
	sh := k.sh
	// The zero chain stamp (parent nil, idx 0) precedes every real event
	// at the bound's own time, so "strictly below bound" excludes it.
	bound := event{t: head + sh.lookahead}
	if xkind != 0 && keyLess(xk, bound) {
		bound = xk
	}
	if bound.t > k.horizon {
		// The lane condition is strictly-below-bound, so nudging the cap
		// one ulp past the horizon makes the horizon itself inclusive,
		// matching the serial dispatch loops.
		bound = event{t: math.Nextafter(k.horizon, math.Inf(1))}
	}
	active := k.eligible(bound)
	if len(active) == 0 {
		// Unreachable: a head precedes the next exclusive item, and a
		// suspended lane's keys all exceed its pending section's key.
		panic("sim: window with no eligible lane")
	}
	sh.windows++
	if len(active) > 1 {
		sh.parallel++
	}
	sh.inWindow = true
	if len(active) == 1 || len(sh.crew.helpers) == 0 {
		for _, pt := range active {
			k.runLane(pt)
		}
	} else {
		sh.crew.openWindow(len(active))
		k.claimLanes()
		sh.crew.joinWindow()
		raiseLanePanic(active)
	}
	sh.inWindow = false
	// Join: collect suspended sections and refresh heads.
	for _, pt := range active {
		for _, req := range pt.pend {
			k.pendPush(req)
		}
		pt.pend = pt.pend[:0]
		k.heapFix(pt)
	}
}

// eligible returns, in partition-index order, the unsuspended lanes with
// work strictly below bound, setting their bounds.
func (k *Kernel) eligible(bound event) []*partition {
	active := k.sh.active[:0]
	k.headsUpTo(bound.t, func(pt *partition) bool {
		if pt.nsusp == 0 && keyLess(pt.head, bound) {
			pt.bound = bound
			active = append(active, pt)
		}
		return true
	})
	slices.SortFunc(active, func(a, b *partition) int { return a.idx - b.idx })
	k.sh.active = active
	return active
}

// runLane dispatches one partition's events strictly below its bound. It
// is the lane-side analogue of the serial drain: hooks fire inline, and
// the calling worker drives the lane's processes until the lane runs dry
// or one suspends into a shared section.
func (k *Kernel) runLane(pt *partition) {
	pt.active = true
	k.drive(pt, k.laneNext(pt, nil))
	pt.active = false
}

// laneNext is xNext for a lane: it dispatches pt's events below the window
// bound until one resumes a process — returned, possibly self — or the
// lane is done for this window (nil).
func (k *Kernel) laneNext(pt *partition, self *Proc) *Proc {
	for {
		ev, ok := pt.cal.peek()
		if !ok || !keyLess(ev, pt.bound) {
			return nil
		}
		if p := k.dispatch(&pt.lane, ev, self); p != nil {
			return p
		}
	}
}

// settle ends a Run or RunUntil: on the partitioned kernel it raises every
// partition clock to the kernel's and, when tracing, replays every advance
// record still logged (see replay). Safe after every Run/RunUntil: the
// replay frontier persists.
func (k *Kernel) settle() {
	sh := k.sh
	if sh == nil {
		return
	}
	for _, pt := range sh.parts {
		if pt.now < k.now {
			pt.now = k.now
		}
	}
	if k.rec != nil {
		k.replay(math.Inf(1))
	}
}

// replay charges every logged clock advance earlier than limit to its
// layer against one global clock, in (t, stamp) order: each record charges
// the portion of global time it newly uncovers, so attributed layer time
// telescopes to the final clock, and of records at one time the one the
// serial kernel dispatched first takes the charge. Later records stay
// logged. A record is final once limit, the earliest pending item's time,
// has passed it: every later dispatch or elided sleep happens at or after
// limit.
func (k *Kernel) replay(limit float64) {
	var streams [][]advRec
	k.eachLane(func(ln *lane) { streams = append(streams, ln.advLog) })
	pos := make([]int, len(streams))
	g := k.sh.advClock
	for {
		best := -1
		for i, s := range streams {
			if pos[i] < len(s) && s[pos[i]].t < limit && (best < 0 || advLess(s[pos[i]], streams[best][pos[best]])) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		r := streams[best][pos[best]]
		pos[best]++
		if r.t > g {
			k.rec.Advance(r.layer, g, r.t)
			g = r.t
		}
	}
	k.sh.advClock = g
	i := 0
	k.eachLane(func(ln *lane) {
		ln.advLog = append(ln.advLog[:0], ln.advLog[pos[i]:]...)
		i++
	})
}

// unreplayed counts the advance records awaiting their replay.
func (k *Kernel) unreplayed() (n int) {
	k.eachLane(func(ln *lane) { n += len(ln.advLog) })
	return n
}

func advLess(a, b advRec) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return chainLess(a.parent, a.idx, b.parent, b.idx)
}
