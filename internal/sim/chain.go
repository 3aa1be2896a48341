// Origin chains: the genealogy-based tie-break that makes the partitioned
// kernel reproduce the serial kernel's equal-timestamp dispatch order
// exactly, even when the tied events live in different partitions.
//
// The serial kernel breaks timestamp ties by global insertion order (the
// plain seq counter). That order is not locally reconstructible from a
// partition: it depends on the interleaving of every insert in the run.
// But it IS recursively reconstructible: an event is inserted while some
// earlier event is being dispatched (its "origin"), and inserts performed
// during one dispatch happen in program order. So the serial insertion
// order of two events equals
//
//   - their origins' dispatch order, when the origins differ, and
//   - their within-origin insert order, when the origins coincide —
//
// and a dispatch order question is an insertion order question about the
// origin events, recursively, until the chains meet (or bottom out at the
// pre-run root, where insertion order is again program order).
//
// Each sharded-mode event therefore carries (parent, idx): parent is a
// chainNode identifying the dispatch during which it was inserted (nil for
// pre-run inserts), idx its insert rank within that dispatch. chainLess
// compares two such genealogies; keyLess is the full (t, genealogy) order
// used at every cross-calendar decision point. Within one calendar the
// packed (t, seq) order is already consistent with chain order — inserts
// into a calendar from one context are stamped in the same order they are
// sequenced — so the calendar queues never consult chains.
//
// The reference order being reconstructed is the serial kernel WITHOUT its
// Sleep handoff-eliding fast path. That is sound because an elided resume
// is, by the fast path's own guard, a strict unique global minimum at its
// time: dispatching it reorders nothing, and chainCtx.elide re-creates the
// exact node the non-elided reference would have dispatched. The serial
// kernel's observable behavior is identical with or without its fast path,
// so matching the no-elide reference matches the serial goldens.
//
// Chains grow one node per dispatch generation, so long runs re-root: when
// the live node population passes chainRerootGoal, the coordinator (at a
// quiescent point) cuts every chain at the pending frontier G, the earliest
// time anything is still pending. No later dispatch is earlier than G, so a
// node before G is only ever compared with another node before G at its
// own time; the cut replaces each such node still referenced by a root
// proxy carrying its time and its rank among them, and the history above
// it becomes garbage at once. Nodes at or after G keep their genealogy:
// lanes run ahead of G inside windows, and what they dispatched there may
// still tie with dispatches to come.
package sim

import (
	"math"
	"sort"
)

// chainNode identifies one dispatched event for genealogy comparisons:
// its own (t, idx) key plus its parent dispatch. Nodes are immutable after
// creation and shared by every event inserted during that dispatch.
type chainNode struct {
	parent *chainNode
	t      float64
	idx    uint64
}

// chainLess reports whether genealogy (pa, ia) precedes (pb, ib) in the
// reference serial insertion order, given the owning events' times are
// equal. A nil parent means "inserted before any dispatch" (pre-run or
// re-rooted), which precedes every real dispatch.
func chainLess(pa *chainNode, ia uint64, pb *chainNode, ib uint64) bool {
	for {
		if pa == pb {
			// Same origin dispatch (or both pre-run): insert order decides.
			return ia < ib
		}
		ta, tb := math.Inf(-1), math.Inf(-1)
		if pa != nil {
			ta = pa.t
		}
		if pb != nil {
			tb = pb.t
		}
		if ta != tb {
			// The origin dispatched earlier inserted its child earlier.
			return ta < tb
		}
		// Equal-time distinct origins: their dispatch order is their own
		// insertion order — recurse one generation up. Both are non-nil
		// here (nil/nil was the pa == pb case, nil/non-nil differs in t).
		ia, pa = pa.idx, pa.parent
		ib, pb = pb.idx, pb.parent
	}
}

// keyLess is the full sharded dispatch order: time, then genealogy. The
// zero stamp (parent nil, idx 0) is reserved as a bound sentinel that
// precedes every real event at its own time (real root stamps start at
// idx 1), so "strictly below bound" excludes bound-time events.
func keyLess(a, b event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return chainLess(a.parent, a.idx, b.parent, b.idx)
}

// chainCtx is one dispatch context's stamping state: the exclusive lane
// has one, each partition lane has one. It tracks the currently executing
// segment (the last event popped in this context) and hands out insert
// ranks; the segment's chainNode is materialized lazily, only when the
// segment actually inserts something.
type chainCtx struct {
	segParent *chainNode // parent of the current segment's node
	segT      float64
	segIdx    uint64
	seg       *chainNode // lazily created node for the current segment
	haveSeg   bool       // false: root context (pre-run / between-run inserts)
	nextIdx   uint64     // next insert rank in this segment
	made      uint64     // nodes materialized since the last re-root
}

// initRoot prepares a root-level context: stamps are (nil, 1), (nil, 2), …
// so the (nil, 0) bound sentinel stays strictly first.
func (c *chainCtx) initRoot() {
	c.segParent, c.seg, c.haveSeg = nil, nil, false
	c.segT, c.segIdx = 0, 0
	c.nextIdx = 1
}

// begin enters the dispatch of an event with stamp (parent, t, idx): every
// insert until the next begin/adopt is a child of that event.
func (c *chainCtx) begin(parent *chainNode, t float64, idx uint64) {
	c.segParent, c.segT, c.segIdx = parent, t, idx
	c.seg = nil
	c.haveSeg = true
	c.nextIdx = 0
}

// adopt resumes a suspended segment on this context: same node pointer
// (children stamped before and after the suspension must share it) and
// the surviving insert rank.
func (c *chainCtx) adopt(n *chainNode, nextIdx uint64) {
	c.segParent, c.segT, c.segIdx = n.parent, n.t, n.idx
	c.seg = n
	c.haveSeg = true
	c.nextIdx = nextIdx
}

// segNode returns the current segment's chainNode, materializing it on
// first use. Nil for a root context.
func (c *chainCtx) segNode() *chainNode {
	if !c.haveSeg {
		return nil
	}
	if c.seg == nil {
		c.seg = &chainNode{parent: c.segParent, t: c.segT, idx: c.segIdx}
		c.made++
	}
	return c.seg
}

// stamp returns the genealogy for the next event inserted by this context.
func (c *chainCtx) stamp() (*chainNode, uint64) {
	p := c.segNode()
	i := c.nextIdx
	c.nextIdx++
	return p, i
}

// elide records a Sleep whose resume event was elided by a fast path: the
// reference kernel would have inserted resume R = (t, stamp()) and
// immediately dispatched it (the fast path's guard makes R a strict
// minimum), so the context moves to the segment R would have opened.
func (c *chainCtx) elide(t float64) {
	p, i := c.stamp()
	c.segParent, c.segT, c.segIdx = p, t, i
	c.seg = nil
	c.haveSeg = true
	c.nextIdx = 0
}

// chainRerootGoal bounds the live chainNode population; a var so tests can
// shrink it to force re-roots in small runs. ~48 bytes per node.
var chainRerootGoal uint64 = 4 << 20

// chainMade sums nodes materialized since the last re-root.
func (k *Kernel) chainMade() (n uint64) {
	k.eachLane(func(ln *lane) { n += ln.ctx.made })
	return n
}

// rerootChains cuts every origin chain at the pending frontier g and
// drops the history before it. Every holder of a chain — pending events,
// suspended shared sections, the contexts' segments — is re-pointed: a
// node at or after g stays as it is, with its parent re-pointed in turn,
// and a node before g is replaced by a root proxy {nil, t, rank}, rank
// its place among the replaced nodes in (t, genealogy) order. Every
// comparison keyLess can still make is unchanged: a dispatch to come is
// at or after g, so any comparison that climbs to a node before g meets
// another node before g at the same time, which is a proxy as well, and
// the ranks order the two exactly as their chains did.
//
// Must run at a coordinator-quiescent point: no lane active, no process
// holding the baton, no advance record awaiting its replay (records hold
// chains too). Nodes before g are never mutated, so ranking them walks
// intact chains.
func (k *Kernel) rerootChains() {
	sh := k.sh
	g := k.frontier()
	lifted := map[*chainNode]*chainNode{}
	var cut []*chainNode
	var lift func(n *chainNode) *chainNode
	lift = func(n *chainNode) *chainNode {
		if n == nil {
			return nil
		}
		if m, ok := lifted[n]; ok {
			return m
		}
		if n.t >= g {
			lifted[n] = n
			n.parent = lift(n.parent)
			return n
		}
		p := &chainNode{t: n.t}
		lifted[n] = p
		cut = append(cut, n)
		return p
	}
	k.eachLane(func(ln *lane) {
		ln.cal.forEach(func(ev *event) { ev.parent = lift(ev.parent) })
		if ln.ctx.haveSeg {
			ln.ctx.seg = lift(ln.ctx.segNode())
		}
		ln.ctx.made = 0
	})
	for i := range sh.pends {
		sh.pends[i].node = lift(sh.pends[i].node)
	}
	sort.Slice(cut, func(i, j int) bool {
		a, b := cut[i], cut[j]
		if a.t != b.t {
			return a.t < b.t
		}
		return chainLess(a.parent, a.idx, b.parent, b.idx)
	})
	for rank, n := range cut {
		lifted[n].idx = uint64(rank)
	}
	k.eachLane(func(ln *lane) {
		if ln.ctx.haveSeg {
			ln.ctx.adopt(ln.ctx.seg, ln.ctx.nextIdx)
		}
	})
	for _, pt := range sh.parts {
		// The cached heap key holds a copy of the head's old stamp; times
		// are unchanged, so refreshing it keeps the heap valid.
		pt.head, _ = pt.cal.peek()
	}
}
