package mpi

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/data"
	"repro/internal/trace"
)

// Tree collectives. Every one is a fixed sequence of binomial-tree passes
// — a gather to a root, a broadcast from one — run by one per-rank state
// machine, coll. A rank awaits the call as its continuation from the start
// (sim.Proc.AwaitNow), so its driver runs the steps up to the first wait on
// the driver's stack, not the rank's. Each later wake of the rank — a
// matched receive's delivery, the end of a receive's cost, the end of a
// send's software overhead, a send's local completion — runs the next
// steps in the wake's own calendar slot instead of switching to the rank's
// coroutine, and the rank resumes once, in the slot of its last step. A send hop runs the sendOp Send runs, and a
// receive hop pays its cost where Recv does, so every message, time and
// scheduling point is the one a rank blocking in Send and Recv at each hop
// would produce; only the coroutine switches between hops are saved
// (DESIGN §5).

// collOp names a collective call: a fixed sequence of passes (collPasses).
type collOp uint8

const (
	opBcast          collOp = iota // Bcast, BcastValueSized
	opAllgather                    // AllgatherInt64: gather to 0, broadcast of the result
	opAllgatherPair                // AllgatherInt64Pair: two AllgatherInt64s
	opAllgatherBytes               // AllgatherBytes: gather to 0, broadcast of the table
	opSplit                        // Split: allgather of colors, gather of keys, broadcast of the children
)

// passKind is one binomial-tree pass.
type passKind uint8

const (
	passGather      passKind = iota // int64s to the root, in contiguous (index, value) runs
	passGatherBytes                 // byte slices to the root, in contiguous (index, bytes) runs
	passBcast                       // (buf, val) from the root
)

var collPasses = [...][]passKind{
	opBcast:          {passBcast},
	opAllgather:      {passGather, passBcast},
	opAllgatherPair:  {passGather, passBcast, passGather, passBcast},
	opAllgatherBytes: {passGatherBytes, passBcast},
	opSplit:          {passGather, passBcast, passGather, passBcast},
}

// collStatus is how far a collective's steps got.
type collStatus uint8

const (
	collNext   collStatus = iota // the hop or pass finished; go on
	collDone                     // the call finished
	collWait                     // a wake is posted; the rank waits parked
	collSleep                    // the rank must sleep through a receive's cost
	collShared                   // the next hop needs the rank's own process
)

// collWaitOn is the operation a waiting collective completes when it wakes.
type collWaitOn uint8

const (
	waitNone     collWaitOn = iota
	waitRecv                // a posted receive; the wake carries the message
	waitRecvCost            // a receive's overhead and copy
	waitSendPost            // a send's software overhead; its end moves the payload
	waitSend                // a send's local completion
)

// coll is one rank's progress through one tree collective call. It is
// pooled per execution context and lives only for the call, so the
// thousands of ranks a world runs keep no collective state between calls.
type coll struct {
	r      *Rank
	c      *Comm
	op     collOp
	pass   uint8 // index into collPasses[op]
	began  bool  // the current pass has taken its tag and tree position
	inProc bool  // steps run in the rank's process, not as its continuation
	done   bool  // the call finished (not a hop left for the process)
	wait   collWaitOn
	prev   trace.Layer // layer to restore when the pending receive ends
	root   int         // the root of every pass
	vrank  int         // the rank's position in the current pass's tree
	mask   int         // the current pass's next hop
	tag    int         // the current pass's tag
	t0     float64     // start of the pending receive (tracing only)
	opLen  int64       // payload size of the pending receive
	snd    *sendOp     // the pending send
	v0, v1 int64       // the int64 inputs of the call's gather passes, in order
	ival   []int64     // int64 gather: the owned run, then the root's result
	bval   [][]byte    // byte gather: the owned run, then the root's result
	buf    data.Buf    // broadcast payload
	val    any         // host object riding the broadcast
}

func (ln *laneMPI) getColl() *coll {
	if n := len(ln.collPool); n > 0 {
		st := ln.collPool[n-1]
		ln.collPool = ln.collPool[:n-1]
		return st
	}
	return &coll{}
}

// startColl takes a call's state from the pool of r's execution context.
// The fields are set one by one: a composite literal would be built in the
// caller's frame first, and every rank's coroutine stack would pay for it.
func (c *Comm) startColl(r *Rank, op collOp, root int) *coll {
	c.mustRank(r)
	st := r.w.poolFor(r.proc).getColl()
	st.r, st.c, st.op, st.root = r, c, op, root
	return st
}

// release returns a finished call's state to the pool.
func (st *coll) release() {
	pool := st.r.w.poolFor(st.r.proc)
	*st = coll{}
	pool.collPool = append(pool.collPool, st)
}

// run drives the call from the rank's own process. The process awaits st
// at once (sim.Proc.AwaitNow), so even the steps before the first wait run
// on the driver's stack, not the rank's, and it resumes once the call
// finished — or earlier, for a hop only the process can make, after which
// the steps go on inline.
func (st *coll) run() {
	p := st.r.proc
	p.AwaitNow(st)
	for !st.done {
		st.inProc = true
		s, d := st.step()
		st.inProc = false
		switch s {
		case collDone:
			return
		case collWait:
			p.Await(st)
		case collSleep:
			p.AwaitAfter(d, st)
		}
	}
}

// Continue runs the call's next steps in the slot of one of the rank's
// wakes (sim.Cont), or at the call's start. It resumes the rank when the
// call finished or the next hop needs a shared section; otherwise the rank
// waits on, parked. A receive that found its message waiting schedules the
// rank's resume through the receive's cost where the rank's own Sleep
// would have.
func (st *coll) Continue() bool {
	if st.pass == 0 && !st.began {
		// The call's start, on the driver's stack: leave the next call a
		// state to take, so a rank's own stack rarely allocates one.
		if pool := st.r.w.poolFor(st.r.proc); len(pool.collPool) == 0 {
			pool.collPool = append(pool.collPool, &coll{})
		}
	}
	s, d := st.step()
	switch s {
	case collWait:
		return false
	case collSleep:
		st.r.proc.UnparkAfter(d)
		return false
	}
	st.done = s == collDone
	return true
}

// step completes the operation the rank waited for and advances through
// the passes until the next wait or the end of the call.
func (st *coll) step() (collStatus, float64) {
	if s, d := st.finishWait(); s != collNext {
		return s, d
	}
	for {
		passes := collPasses[st.op]
		if int(st.pass) == len(passes) {
			return collDone, 0
		}
		var s collStatus
		var d float64
		if passes[st.pass] == passBcast {
			s, d = st.bcastPass()
		} else {
			s, d = st.gatherPass()
		}
		if s != collNext {
			return s, d
		}
		st.endPass()
	}
}

// begin takes the current pass's tag and the rank's position in its tree.
func (st *coll) begin() {
	n := len(st.c.members)
	st.began = true
	st.tag = st.c.nextCollTag(st.r)
	st.vrank = (st.c.Rank(st.r) - st.root + n) % n
}

// gatherPass is the binomial gather: each node owns the contiguous region
// [vrank, vrank+len) of the virtual ranks, takes its children's adjacent
// regions in mask order and sends the whole to its parent; the root ends
// up with every value. An int64 run travels as the message's value, sized
// as its (index, value) pairs; a byte run is encoded as (index, bytes)
// pairs.
func (st *coll) gatherPass() (collStatus, float64) {
	n := len(st.c.members)
	bytes := collPasses[st.op][st.pass] == passGatherBytes
	if !st.began {
		st.begin()
		st.mask = 1
		if !bytes {
			v := st.v0
			if st.pass > 0 {
				v = st.v1
			}
			// Sized to the region the node ends up owning, so folding its
			// children's runs never regrows it.
			region := n
			if st.vrank != 0 {
				region = min(st.vrank&-st.vrank, n-st.vrank)
			}
			st.ival = append(make([]int64, 0, region), v)
		}
	}
	for st.mask < n {
		if st.vrank&st.mask != 0 {
			parent := (st.vrank - st.mask + st.root) % n
			if st.procHop(parent) {
				return collShared, 0
			}
			st.mask = n // the send to the parent ends the pass
			var s collStatus
			var d float64
			if bytes {
				s, d = st.send(parent, data.FromBytes(encodeBytesRange(st.vrank, st.bval)), nil)
			} else {
				// The run rides the message as its value; the wire carries
				// its (index, value) pairs' size.
				s, d = st.send(parent, data.Synthetic(16*int64(len(st.ival))), st.ival)
			}
			if s != collNext {
				return s, d
			}
			break
		}
		child := st.vrank + st.mask
		st.mask <<= 1
		if child < n {
			if s, d := st.recv((child + st.root) % n); s != collNext {
				return s, d
			}
		}
	}
	if st.vrank != 0 {
		st.ival, st.bval = nil, nil
		return collNext, 0
	}
	if bytes {
		st.bval = slices.Clip(st.bval)
	}
	// Only Bcast takes a root: every gather pass roots at comm rank 0, so
	// the virtual ranks are the ranks and the root's run is the result.
	return collNext, 0
}

// bcastPass is the binomial broadcast: a non-root receives from its parent
// (its vrank less its lowest set bit), then every node forwards to its
// children in descending mask order.
func (st *coll) bcastPass() (collStatus, float64) {
	n := len(st.c.members)
	if n == 1 {
		return collNext, 0
	}
	if !st.began {
		st.begin()
		if st.vrank != 0 {
			low := st.vrank & -st.vrank
			st.mask = low >> 1
			if s, d := st.recv((st.vrank - low + st.root) % n); s != collNext {
				return s, d
			}
		} else {
			st.mask = 1
			for st.mask < n {
				st.mask <<= 1
			}
			st.mask >>= 1
		}
	}
	for st.mask >= 1 {
		child := st.vrank + st.mask
		if child >= n {
			st.mask >>= 1
			continue
		}
		dst := (child + st.root) % n
		if st.procHop(dst) {
			return collShared, 0
		}
		st.mask >>= 1
		if s, d := st.send(dst, st.buf, st.val); s != collNext {
			return s, d
		}
	}
	return collNext, 0
}

// endPass hands one pass's result to the next pass and moves on.
func (st *coll) endPass() {
	n := int64(len(st.c.members))
	root := st.vrank == 0
	switch {
	case st.pass == 0 && (st.op == opAllgather || st.op == opAllgatherPair || st.op == opSplit):
		// All ranks receive the root's slice (the broadcast is charged at
		// full size but the decoded object is shared).
		if root {
			st.val = st.ival
		}
		st.buf = data.Synthetic(8 * n)
	case st.op == opAllgatherPair && st.pass == 2:
		// The second broadcast carries both results: every rank holds the
		// root's first slice already, so sharing it again changes nothing.
		if root {
			st.val = [2][]int64{st.val.([]int64), st.ival}
		}
		st.buf = data.Synthetic(8 * n)
	case st.op == opAllgatherBytes && st.pass == 0:
		var total int64
		if root {
			for _, b := range st.bval {
				total += int64(len(b)) + 8
			}
			st.val = st.bval
		}
		st.buf = data.Synthetic(total)
	case st.op == opSplit && st.pass == 2:
		// Comm rank 0 builds every child once the keys reached it; the
		// child table rides the keys' broadcast back, so a split touches
		// no registry.
		if root {
			st.val = st.c.children(st.r, st.val.([]int64))
		}
		st.buf = data.Synthetic(8 * n)
	}
	st.pass++
	st.began = false
	st.mask = 0
}

// procHop reports whether the send to comm rank dst must wait for the
// rank's own process: it needs a shared section — the lanes may not carry
// it — and the steps run as a continuation, which cannot enter one.
func (st *coll) procHop(dst int) bool {
	r := st.r
	return !st.inProc && r.w.lanes != nil && r.w.lanePort(r, r.w.rankOf(st.c.members[dst])) == nil
}

// send sends the pass's message to comm rank dst: exactly Send, with the
// waits left to the caller. A hop that needs a shared section runs the
// whole Send from the rank's own process.
func (st *coll) send(dst int, buf data.Buf, val any) (collStatus, float64) {
	op := st.c.newSend(st.r, dst, st.tag, buf, val)
	if op.shared {
		op.wait()
		return collNext, 0
	}
	st.snd = op
	st.wait = waitSendPost
	return collSleep, sendOverhead
}

// recv receives the pass's message from comm rank src: exactly Recv, with
// the wait left to the caller. A message already in the inbox is taken at
// once, and its cost is slept through inline when Sleep's fast path allows
// — from a continuation too: the continuation runs in the slot the rank
// would have resumed in, so it finds the calendar the rank would have
// found.
func (st *coll) recv(src int) (collStatus, float64) {
	r := st.r
	st.prev, st.t0 = r.proc.Enter(trace.LayerMPI)
	srcWorld := st.c.members[src]
	m := r.take(st.c.id, srcWorld, st.tag)
	if m == nil {
		r.post(st.c, srcWorld, st.tag)
		st.wait = waitRecv
		return collWait, 0
	}
	st.fold(m)
	d := r.recvCost(st.opLen)
	if r.proc.SleepFast(d) {
		r.proc.Leave(st.prev, trace.LayerMPI, "mpi.recv", r.id, st.t0, st.opLen)
		return collNext, 0
	}
	st.wait = waitRecvCost
	return collSleep, d
}

// fold folds a received message into the pass and frees it.
func (st *coll) fold(m *message) {
	st.opLen = m.buf.Len()
	switch collPasses[st.op][st.pass] {
	case passGather:
		// Gather regions are adjacent by construction: the run starts at
		// the sender's index, which is its comm rank (gathers root at 0).
		if k, want := st.c.rankOfWorld(m.src), st.vrank+len(st.ival); k != want {
			panic(fmt.Sprintf("mpi: gather region starts at %d, want %d", k, want))
		}
		st.ival = append(st.ival, m.val.([]int64)...)
	case passGatherBytes:
		st.bval = appendBytesRange(st.bval, st.vrank+len(st.bval), m.buf.Bytes())
	case passBcast:
		st.buf, st.val = m.buf, m.val
	}
	st.r.putMsg(m)
}

// finishWait completes the wait the rank was woken from, at the instant
// the rank's own code would have returned from it, and reports whether a
// further wait of the same operation follows: a delivered message's
// receive cost, or a send's local completion.
func (st *coll) finishWait() (collStatus, float64) {
	r := st.r
	switch st.wait {
	case waitRecv:
		st.fold(r.delivered())
		st.wait = waitRecvCost
		return collSleep, r.recvCost(st.opLen)
	case waitRecvCost:
		r.proc.Leave(st.prev, trace.LayerMPI, "mpi.recv", r.id, st.t0, st.opLen)
	case waitSendPost:
		st.snd.Continue()
		st.wait = waitSend
		return collWait, 0
	case waitSend:
		st.snd.end()
		st.snd = nil
	}
	st.wait = waitNone
	return collNext, 0
}

// Bcast broadcasts buf from root to all ranks (binomial tree) and returns
// each rank's copy.
func (c *Comm) Bcast(r *Rank, root int, buf data.Buf) data.Buf {
	buf, _ = c.bcast(r, root, buf, nil)
	return buf
}

// bcast is the binomial-tree broadcast behind Bcast and BcastValueSized:
// the root's host object val rides every tree message with the payload.
func (c *Comm) bcast(r *Rank, root int, buf data.Buf, val any) (data.Buf, any) {
	st := c.startColl(r, opBcast, root)
	st.buf, st.val = buf, val
	st.run()
	buf, val = st.buf, st.val
	st.release()
	return buf, val
}

// BcastValueSized broadcasts an arbitrary Go value from root to every rank,
// charging the broadcast cost of a payload of the given byte size. It exists
// because a real MPI program's ranks obtain shared objects (file handles,
// plans) from the same library call, while in the simulation the object
// lives on one rank; the value rides the broadcast's own messages, whose tag
// is the communicator's synchronized collective sequence number, so
// overlapping broadcasts cannot cross. Receivers share the root's object:
// treat it as read-only.
func (c *Comm) BcastValueSized(r *Rank, root int, v any, size int64) any {
	_, v = c.bcast(r, root, data.Synthetic(size), v)
	return v
}

// AllgatherInt64 gathers one int64 from every rank to every rank. All ranks
// receive the same backing slice (the broadcast is charged at full size but
// the decoded object is shared): treat the result as read-only.
func (c *Comm) AllgatherInt64(r *Rank, v int64) []int64 {
	st := c.startColl(r, opAllgather, 0)
	st.v0 = v
	st.run()
	out := st.val.([]int64)
	st.release()
	return out
}

// AllgatherInt64Pair is AllgatherInt64(r, a) followed by AllgatherInt64(r,
// b) as one call: the same messages, times and results, with the rank
// waiting through both as one continuation, so its process resumes once
// instead of twice. Treat the results as read-only.
func (c *Comm) AllgatherInt64Pair(r *Rank, a, b int64) (as, bs []int64) {
	st := c.startColl(r, opAllgatherPair, 0)
	st.v0, st.v1 = a, b
	st.run()
	out := st.val.([2][]int64)
	st.release()
	return out[0], out[1]
}

// AllgatherBytes gathers each rank's byte slice to every rank, indexed by
// comm rank (a variable-length allgatherv). Receivers share the root's
// slices; treat the result as read-only.
func (c *Comm) AllgatherBytes(r *Rank, b []byte) [][]byte {
	st := c.startColl(r, opAllgatherBytes, 0)
	st.bval = append(make([][]byte, 0, 2), b)
	st.run()
	out := st.val.([][]byte)
	st.release()
	return out
}

// Split partitions the communicator by color, ordering each new
// communicator by (key, old rank), exactly like MPI_Comm_split. Every rank
// must call it; ranks with the same color receive the same *Comm.
//
// Deviation from MPI: the new communicator is always ordered by world rank
// regardless of key (Comm.Rank relies on sorted membership). The paper's
// strategies only split with key == parent rank, where the two orderings
// coincide.
func (c *Comm) Split(r *Rank, color int64, key int64) *Comm {
	// The physical cost is an allgather of (color, key): an allgather of
	// the colors, a gather of the keys, and the broadcast of the child
	// table comm rank 0 builds from them.
	st := c.startColl(r, opSplit, 0)
	st.v0, st.v1 = color, key
	st.run()
	return st.child(color)
}

// child returns the new communicator of color and releases the call's
// state.
//
//go:noinline // keeps the lookup's frame out of Split's, parked under the call
func (st *coll) child(color int64) *Comm {
	out := st.val.(map[int64]*Comm)[color]
	st.release()
	return out
}

// children builds one communicator per color, minting ids in ascending
// color order from the namespace of r's pset.
func (c *Comm) children(r *Rank, colors []int64) map[int64]*Comm {
	groups := make(map[int64][]int)
	var order []int64
	for i, col := range colors {
		if _, seen := groups[col]; !seen {
			order = append(order, col)
		}
		// Parent members ascend, so every group does too.
		groups[col] = append(groups[col], c.members[i])
	}
	slices.Sort(order)
	out := make(map[int64]*Comm, len(order))
	for _, col := range order {
		members := groups[col]
		off, ident := identOff(members)
		out[col] = &Comm{
			w: c.w, id: c.w.newCommID(r), members: members,
			ident: ident, off: off, part: c.w.commPart(members),
		}
	}
	return out
}

// encodeBytesRange serializes the contiguous (index, bytes) pairs
// (base+i, vals[i]) — byte-identical to the former sparse-map encoding.
func encodeBytesRange(base int, vals [][]byte) []byte {
	var b []byte
	b = binary.LittleEndian.AppendUint32(b, uint32(len(vals)))
	for i, v := range vals {
		b = binary.LittleEndian.AppendUint32(b, uint32(base+i))
		b = binary.LittleEndian.AppendUint32(b, uint32(len(v)))
		b = append(b, v...)
	}
	return b
}

// appendBytesRange decodes a contiguous run encoded by encodeBytesRange and
// appends its byte slices (aliasing the buffer) to vals.
func appendBytesRange(vals [][]byte, base int, b []byte) [][]byte {
	if len(b) < 4 {
		return vals
	}
	n := int(binary.LittleEndian.Uint32(b))
	p := b[4:]
	for i := 0; i < n && len(p) >= 8; i++ {
		k := int(binary.LittleEndian.Uint32(p))
		l := int(binary.LittleEndian.Uint32(p[4:]))
		p = p[8:]
		if l > len(p) {
			break
		}
		if k != base {
			panic(fmt.Sprintf("mpi: gather region starts at %d, want %d", k, base))
		}
		vals = append(vals, p[:l])
		p = p[l:]
		base++
	}
	return vals
}
