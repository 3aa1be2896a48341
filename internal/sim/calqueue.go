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
// Buckets store events by value and keep their capacity when drained, so
// steady-state churn allocates nothing; a drained bucket far larger than
// the queue's live population is released (see keep).
type calQueue struct {
	cur  []event     // events at the base time, seq order, live from head on
	head int         // next event of cur to pop
	b    [64][]event // b[j]: keys whose highest bit differing from base is j
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

// infKey is the key of +Inf, the largest time a calendar accepts.
const infKey = 0x7ff << 52

// calKeepCap is the capacity a drained bucket may always keep.
const calKeepCap = 256

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
	for i := c.head; i < len(c.cur); i++ {
		fn(&c.cur[i])
	}
	for j := range c.b {
		for i := range c.b[j] {
			fn(&c.b[j][i])
		}
	}
	c.hasMin = false // the cached copy holds the old parent/idx
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
		if c.head > 0 && len(c.cur) == cap(c.cur) && 2*c.head >= len(c.cur) {
			// Full, and at least half of it already popped: slide the live
			// run to the front instead of growing.
			n := copy(c.cur, c.cur[c.head:])
			clear(c.cur[n:])
			c.cur, c.head = c.cur[:n], 0
		}
		c.cur = append(c.cur, ev)
		return
	}
	j := bits.Len64(k^c.base) - 1
	c.b[j] = append(c.b[j], ev)
	c.full |= 1 << j
}

// peek returns the global (t, seq) minimum without removing it.
func (c *calQueue) peek() (event, bool) {
	if c.head < len(c.cur) {
		return c.cur[c.head], true
	}
	if c.n == 0 {
		return event{}, false
	}
	if !c.hasMin {
		lo := c.b[bits.TrailingZeros64(c.full)]
		c.min = lo[0]
		for _, ev := range lo[1:] {
			if eventLess(ev, c.min) {
				c.min = ev
			}
		}
		c.hasMin = true
	}
	return c.min, true
}

// pop removes and returns the global (t, seq) minimum. Callers guarantee the
// queue is non-empty.
func (c *calQueue) pop() event {
	if c.head == len(c.cur) {
		c.refill()
	}
	ev := c.cur[c.head]
	c.cur[c.head] = event{} // clear the slot so the hook can be collected
	c.head++
	c.n--
	if c.head == len(c.cur) {
		c.cur, c.head = c.keep(c.cur[:0]), 0
	}
	c.hasMin = false
	return ev
}

// refill moves the base to the earliest queued time and redistributes the
// lowest non-empty bucket, which holds it: events at that time fill cur,
// the rest drop to lower buckets. Callers guarantee cur is empty.
//
// cur comes out in seq order without a sort. Events of one time share a
// key, so they always share a bucket; a push appends the largest seq yet,
// and a refill moves a bucket's events in their slice order into buckets
// that held none of that time. Within every bucket, then, the events of
// each time are a seq-ordered subsequence.
func (c *calQueue) refill() {
	j := bits.TrailingZeros64(c.full)
	src := c.b[j]
	if c.hasMin {
		c.base = timeKey(c.min.t)
	} else {
		c.base = timeKey(src[0].t)
		for _, ev := range src[1:] {
			c.base = min(c.base, timeKey(ev.t))
		}
	}
	c.full &^= 1 << j
	for _, ev := range src {
		k := timeKey(ev.t)
		if k == c.base {
			c.cur = append(c.cur, ev)
			continue
		}
		i := bits.Len64(k^c.base) - 1
		c.b[i] = append(c.b[i], ev)
		c.full |= 1 << i
	}
	clear(src)
	c.b[j] = c.keep(src[:0])
}

// keep returns a drained bucket for reuse, or nil when its capacity is far
// above the live population: after a wave of tens of thousands of events
// drains, its buckets must not pin that memory for the rest of the run.
func (c *calQueue) keep(s []event) []event {
	if cap(s) > calKeepCap && cap(s) > 4*c.n {
		return nil
	}
	return s
}
