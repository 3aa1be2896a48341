package sim

import (
	"fmt"
	"math"
	"math/bits"
)

// calQueue is the kernel's event calendar: a monotone radix heap keyed by
// the bit pattern of each event's time.
//
// Every calendar the kernel keeps — the serial one, each partition's, the
// sharded shared one — is a monotone queue, and the radix heap relies on
// exactly that:
//
//   - a push is never earlier than the last time popped from its calendar
//     (the t < now and t < pt.now checks at every insert enforce it);
//   - a push carries a larger seq than every event already queued, because
//     the seq is drawn from the calendar's own counter right before it.
//
// For non-negative floats the bit pattern orders like the value, so times
// become uint64 keys. The base is the key of the last popped time, and it
// only rises. An event whose key equals the base sits in cur, in seq order
// (the second invariant makes a push there an append). Any other event sits
// in b[j], j the highest bit where its key differs from the base; every key
// in b[j] is then below every key in b[j+1]. Pop drains cur, and when cur is
// empty it moves the base to the least key of the lowest non-empty bucket
// and redistributes that bucket: its earliest events fill cur, the rest
// land in lower buckets. An event moves down at most 64 times, so push and
// pop are O(1) amortized with no tuning to the workload's time spacing.
//
// Pop order is the global (t, seq&seqMask) order, the exact order a binary
// heap yields, so simulated results are bit-identical by construction.
//
// Every list of events — cur and each b[j] — is a FIFO chain of fixed-size
// blocks (see calList), so no storage ever grows by copying. Blocks come
// from, and drained ones return to, a free list owned by the calendar: a
// refill hands the drained bucket's blocks to the buckets it fills. Each
// list keeps its last block when it empties, so a sparse calendar moves no
// block for a push or pop, and steady-state churn allocates nothing.
type calQueue struct {
	cur  calList     // events at the base time, seq order
	b    [64]calList // b[j]: keys whose highest bit differing from base is j
	free *calBlock   // drained blocks, linked through next
	full uint64      // bit j set when b[j] is non-empty
	base uint64      // key of the last popped time
	n    int         // events queued

	// min caches peek's answer while cur is empty. Only pop may move the
	// base: callers peek and then push an event earlier than the head (the
	// RunUntil horizon, Sleep's fast path, the sharded head heap), which a
	// base moved by peek could no longer file.
	min    event
	hasMin bool
}

// calBlockLen is the number of events in one calendar block: 64 events of
// 48 bytes, 3 KB.
const calBlockLen = 64

// calBlock is one fixed-size run of a calendar list's storage.
type calBlock struct {
	ev   [calBlockLen]event
	next *calBlock // the list's next block, or the free list's
}

// calList is a FIFO chain of blocks holding head.ev[lo:], every block after
// head, and tail.ev[:hi] — head.ev[lo:hi] when head == tail. Only cur pops
// from its head; a bucket drains whole, so its lo stays 0. A list that
// empties keeps its tail block and fills it again from the start. Slots
// are indexed modulo calBlockLen, which costs a mask and spares the
// bounds check.
type calList struct {
	head, tail *calBlock
	lo, hi     uint
}

func (l *calList) empty() bool { return l.lo == l.hi && l.head == l.tail }

// span returns the live events of blk, one of l's blocks.
func (l *calList) span(blk *calBlock) []event {
	lo, hi := uint(0), uint(calBlockLen)
	if blk == l.head {
		lo = l.lo
	}
	if blk == l.tail {
		hi = l.hi
	}
	return blk.ev[lo:hi]
}

// infKey is the key of +Inf, the largest time a calendar accepts.
const infKey = 0x7ff << 52

// timeKey maps an event time to its radix key. -0.0 and +0.0 are the same
// time, so both map to key 0; the event itself keeps its t.
func timeKey(t float64) uint64 {
	if t == 0 {
		return 0
	}
	return math.Float64bits(t)
}

// len reports the total number of queued events.
func (c *calQueue) len() int { return c.n }

// forEach visits every queued event in unspecified order, handing out
// pointers valid until the next push or pop. The sharded re-root uses it to
// re-stamp origin chains in place; callers must never mutate t or seq, so
// the calendar's internal (t, seq) order is unaffected.
func (c *calQueue) forEach(fn func(*event)) {
	c.cur.forEach(fn)
	for j := range c.b {
		c.b[j].forEach(fn)
	}
	c.hasMin = false // the cached copy holds the old parent/idx
}

func (l *calList) forEach(fn func(*event)) {
	for blk := l.head; blk != nil; blk = blk.next {
		evs := l.span(blk)
		for i := range evs {
			fn(&evs[i])
		}
	}
}

// eventLess orders by (time, scheduling order). The top bits of seq carry
// the scheduling layer's trace tag (see layerShift in kernel.go) and are
// masked off here: layer tags must never influence dispatch order, or
// attaching a recorder would change simulated results.
func eventLess(a, b event) bool {
	return a.t < b.t || (a.t == b.t && a.seq&seqMask < b.seq&seqMask)
}

func (c *calQueue) push(ev event) {
	k := timeKey(ev.t)
	if k < c.base || k > infKey {
		// Earlier than the last pop, negative or NaN: the monotone
		// invariant is broken, and filing the event would reorder it.
		panic(fmt.Sprintf("sim: calendar push at %v outside [%v, +Inf]", ev.t, math.Float64frombits(c.base)))
	}
	c.n++
	if c.hasMin && eventLess(ev, c.min) {
		c.min = ev
	}
	if k == c.base {
		*c.slot(&c.cur) = ev
		return
	}
	j := bits.Len64(k^c.base) - 1
	*c.slot(&c.b[j]) = ev
	c.full |= 1 << j
}

// slot returns the next free slot at the end of l, which must belong to c.
// Callers store the event straight into it.
func (c *calQueue) slot(l *calList) *event {
	if l.hi == calBlockLen || l.tail == nil {
		c.grow(l)
	}
	l.hi++
	return &l.tail.ev[(l.hi-1)%calBlockLen]
}

// grow links a block from the free list, or a new one, after l's tail.
func (c *calQueue) grow(l *calList) {
	blk := c.free
	if blk != nil {
		c.free, blk.next = blk.next, nil
	} else {
		blk = new(calBlock)
	}
	if l.tail == nil {
		l.head = blk
	} else {
		l.tail.next = blk
	}
	l.tail, l.hi = blk, 0
}

// release puts a drained block on the free list.
func (c *calQueue) release(blk *calBlock) {
	blk.next, c.free = c.free, blk
}

// peek returns the global (t, seq) minimum without removing it.
func (c *calQueue) peek() (event, bool) {
	if !c.cur.empty() {
		return c.cur.head.ev[c.cur.lo%calBlockLen], true
	}
	if c.n == 0 {
		return event{}, false
	}
	if !c.hasMin {
		lo := &c.b[bits.TrailingZeros64(c.full)]
		m := &lo.head.ev[0]
		for blk := lo.head; blk != nil; blk = blk.next {
			evs := lo.span(blk)
			for i := range evs {
				if eventLess(evs[i], *m) {
					m = &evs[i]
				}
			}
		}
		c.min, c.hasMin = *m, true
	}
	return c.min, true
}

// pop removes and returns the global (t, seq) minimum. Callers guarantee the
// queue is non-empty.
func (c *calQueue) pop() event {
	if c.cur.empty() {
		c.refill()
	}
	blk := c.cur.head
	i := c.cur.lo % calBlockLen
	ev := blk.ev[i]
	blk.ev[i] = event{} // clear the slot so the hook can be collected
	c.cur.lo++
	if c.cur.lo == c.cur.hi || c.cur.lo == calBlockLen {
		c.nextBlock()
	}
	c.n--
	c.hasMin = false
	return ev
}

// nextBlock steps cur past a used-up head block, to the next block, or
// rewinds cur to the start of the block it keeps when it has emptied.
func (c *calQueue) nextBlock() {
	blk := c.cur.head
	if blk == c.cur.tail {
		if c.cur.lo == c.cur.hi {
			c.cur.lo, c.cur.hi = 0, 0
		}
		return
	}
	if c.cur.lo == calBlockLen {
		c.cur.head, c.cur.lo = blk.next, 0
		c.release(blk)
	}
}

// refill moves the base to the earliest queued time and redistributes the
// lowest non-empty bucket, which holds it: events at that time fill cur,
// the rest drop to lower buckets. Callers guarantee cur is empty.
//
// cur comes out in seq order without a sort. Events of one time share a
// key, so they always share a bucket; a push appends the largest seq yet,
// and a refill moves a bucket's events in their list order into buckets
// that held none of that time. Within every bucket, then, the events of
// each time are a seq-ordered subsequence.
//
// Each drained block except the bucket's last goes to the free list at
// once, so the lists being filled reuse it within the same refill.
func (c *calQueue) refill() {
	j := bits.TrailingZeros64(c.full)
	src := &c.b[j]
	if !c.hasMin {
		c.peek()
	}
	c.base = timeKey(c.min.t)
	c.full &^= 1 << j
	for blk := src.head; ; {
		evs := src.span(blk)
		for i := range evs {
			k := timeKey(evs[i].t)
			if k == c.base {
				*c.slot(&c.cur) = evs[i]
				continue
			}
			d := bits.Len64(k^c.base) - 1
			*c.slot(&c.b[d]) = evs[i]
			c.full |= 1 << d
		}
		clear(evs)
		if blk == src.tail {
			break
		}
		next := blk.next
		c.release(blk)
		blk = next
	}
	src.head, src.hi = src.tail, 0
}
