package storage

import (
	"repro/internal/data"
	"repro/internal/fsys"
	"repro/internal/sim"
	"repro/internal/trace"
)

// fileOp is one file operation in flight — a Create, Open, WriteAt, Sync
// or Close — as the continuation its caller awaits (sim.Proc.Then from a
// body, sim.Proc.AwaitNow from a phase; the blocking methods await it at
// once). Its stages are the waits of the storage chain: the ship to the
// ION, the metadata queue, the token acquire, the client stream and the
// data path's commit, and the write-behind Sync and Close waits. Each
// stage ends as the blocking code's wait would: at once where Sleep's
// fast path allows (SleepFast), otherwise in the resume Sleep would have
// scheduled (UnparkAfter), or in the wake a Resource's Release or a
// commit's retirement sends. So the caller resumes once, in the slot its
// blocking code would have returned in, with the same events, RNG draws
// and spans (DESIGN §7). Ops are pooled per mount.
type fileOp struct {
	c    *Core
	p    *sim.Proc
	kind opKind
	at   opStage
	rank int

	path string  // Create's and Open's path
	h    *Handle // the handle written, synced or closed; Create's and Open's result
	off  int64   // WriteAt's offset and payload
	buf  data.Buf

	q       *sim.Resource // the metadata queue the op waits in or holds
	lock    LockWait      // what WriteAt waits on before its data moves
	treeEnd float64       // WriteAt's funnel delivery
	wait    Wait          // WriteAt's perceived blocking
	err     error

	prev   trace.Layer // the caller's layer, restored at the end
	t0     float64     // the op's start (tracing only)
	lockT0 float64     // the token wait's start (tracing only)

	hout *fsys.Handle // where Create and Open put the handle
	eout *error       // where the op puts its error, nil for Sync
}

// opKind names a file operation.
type opKind uint8

const (
	opCreate opKind = iota
	opOpen
	opWrite
	opSync
	opClose
)

// opStage is where a file op goes on once its wait in flight ended.
type opStage uint8

const (
	opStart      opStage = iota // the op starts
	opShipped                   // the request reached the ION; it queues for metadata service
	opMetaHead                  // it reached the head of the metadata queue
	opMetaServed                // it was served; it leaves the queue
	opMetaDone                  // its metadata work ended; the namespace changes
	opLockHead                  // a write reached the head of the token queue
	opLockHeld                  // it held the tokens; its data moves
	opCommitted                 // the data path's wait ended, but for the call's blocks
	opDrained                   // a Close's outstanding commits landed; it ships
	opDone                      // the op ended
)

// startOp takes a file op of kind from the pool for p as rank.
func (c *Core) startOp(p *sim.Proc, kind opKind, rank int, err *error) *fileOp {
	var o *fileOp
	if n := len(c.ops); n > 0 {
		o = c.ops[n-1]
		c.ops = c.ops[:n-1]
	} else {
		o = new(fileOp)
	}
	o.c, o.p, o.kind, o.at, o.rank, o.eout = c, p, kind, opStart, rank, err
	return o
}

// Continue implements sim.Cont: it runs the op's stages until one waits,
// and reports true once the op ended, its results delivered and the op
// back in its pool.
func (o *fileOp) Continue() bool {
	for o.at != opDone {
		if !o.step() {
			return false
		}
	}
	if o.hout != nil {
		*o.hout = nil
		if o.h != nil {
			*o.hout = o.h
		}
	}
	if o.eout != nil {
		*o.eout = o.err
	}
	c := o.c
	*o = fileOp{}
	c.ops = append(c.ops, o)
	return true
}

// step runs the op's next stage and reports whether the op goes on in
// this slot; false leaves it waiting as the stage arranged.
func (o *fileOp) step() bool {
	c, p := o.c, o.p
	switch o.at {
	case opStart:
		return o.start()
	case opShipped:
		o.q = c.meta.Queue(c, o.metaOp(), o.path)
		o.at = opMetaHead
		return o.q.Enlist(p)
	case opMetaHead:
		return o.sleep(c.meta.Service(c, o.metaOp(), o.q), opMetaServed)
	case opMetaServed:
		o.q.Release()
		o.q = nil
		if d, ok := c.meta.Scan(c, o.metaOp(), o.path); ok {
			return o.sleep(d, opMetaDone)
		}
		o.at = opMetaDone
	case opMetaDone:
		o.metaDone()
	case opLockHead:
		return o.sleep(o.lock.Service, opLockHeld)
	case opLockHeld:
		c.lock.Granted(c, o.rank, o.h.f, o.off, o.buf.Len(), o.lock)
		if now := p.Now(); c.rec != nil && now > o.lockT0 {
			c.rec.Span(c.recLayer, "lock.acquire", o.rank, o.lockT0, now, 0)
		}
		return o.stream()
	case opCommitted:
		w := &o.wait
		if w.call != nil && w.call.remaining > 0 {
			w.call.proc = p
			return false
		}
		o.err = w.done()
		p.Leave(o.prev, c.recLayer, "fs.write", o.rank, o.t0, o.buf.Len())
		o.at = opDone
	case opDrained:
		if o.h.total > 0 {
			o.h.closeWait = append(o.h.closeWait, p)
			return false
		}
		return o.sleepUntil(c.funnelIn(p, o.rank, 256), opShipped)
	}
	return true
}

// start runs the op's first stage.
func (o *fileOp) start() bool {
	c, p, h := o.c, o.p, o.h
	switch o.kind {
	case opCreate, opOpen:
		o.prev, o.t0 = p.Enter(c.recLayer)
		return o.sleepUntil(c.funnelIn(p, o.rank, 512), opShipped)
	case opSync:
		client := c.m.PsetOfRank(o.rank)
		if h.outstanding[client] > 0 {
			if h.syncWait == nil {
				h.syncWait = make(map[int][]*sim.Proc)
			}
			h.syncWait[client] = append(h.syncWait[client], p)
			return false
		}
		o.at = opDone
		return true
	case opClose:
		if h.closed {
			o.err, o.at = c.errClosed(), opDone
			return true
		}
		o.prev, o.t0 = p.Enter(c.recLayer)
		o.at = opDrained
		return true
	}
	// opWrite.
	if h.closed {
		o.err, o.at = c.errClosed(), opDone
		return true
	}
	n := o.buf.Len()
	if n == 0 {
		o.at = opDone
		return true
	}
	c.TrackBurst(o.rank)
	o.prev, o.t0 = p.Enter(c.recLayer)
	// 1. Data cuts through the pset funnel into the ION packet by packet
	// while the client stream drains it toward the servers.
	o.treeEnd = c.funnelIn(p, o.rank, n)
	// 2. Whatever the concurrency policy requires before data moves
	// (byte-range tokens serialized at the file's metanode, or nothing).
	o.lock = c.lock.AcquireWrite(c, o.rank, h.f, o.off, n)
	if o.lock.Q == nil {
		return o.stream()
	}
	o.lockT0, o.at = p.Now(), opLockHead
	return o.lock.Q.Enlist(p)
}

// stream runs a write on once it may move its data.
func (o *fileOp) stream() bool {
	c, p, h, n := o.c, o.p, o.h, o.buf.Len()
	// 3. The client stream pipeline drains toward the servers. Streams are
	// per (file, rank): the ION's CIOD proxies each compute process's I/O
	// through its own stream, so distinct writers on one pset do not share
	// a pipeline, while one writer's consecutive writes to a file do.
	_, streamEnd := h.f.Stream(o.rank, c.cfg.ClientStreamBW).Transfer(p.Now(), n)
	if streamEnd < o.treeEnd {
		streamEnd = o.treeEnd
	}
	// 4+5. The data path schedules the Ethernet hops and striped server
	// commits (write-behind, synchronous, or burst-buffer absorption) and
	// hands back the caller's perceived wait.
	o.wait = c.path.Commit(c, h, o.rank, streamEnd, o.off, n)
	h.f.store.Write(o.off, o.buf)
	c.Stats.BytesWritten += n
	return o.sleepUntil(o.wait.Until, opCommitted)
}

// metaDone ends a Create's, Open's or Close's metadata work: the
// namespace mutation, or the handle's release.
func (o *fileOp) metaDone() {
	c, p := o.c, o.p
	o.at = opDone
	switch o.kind {
	case opCreate:
		p.Leave(o.prev, c.recLayer, "md.create", o.rank, o.t0, 0)
		o.h, o.err = c.create(o.path)
	case opOpen:
		p.Leave(o.prev, c.recLayer, "md.open", o.rank, o.t0, 0)
		o.h, o.err = c.open(o.path)
	case opClose:
		p.Leave(o.prev, c.recLayer, "md.close", o.rank, o.t0, 0)
		o.h.closed = true
		c.Stats.Closes++
		o.err = o.h.commitErr
	}
}

// metaOp is the namespace operation of a Create, Open or Close.
func (o *fileOp) metaOp() MetaOp {
	switch o.kind {
	case opCreate:
		return MetaCreate
	case opOpen:
		return MetaOpen
	}
	return MetaClose
}

// sleep ends a stage as Sleep(d) would: in place when Sleep's fast path
// allows, and otherwise in the resume Sleep would have scheduled. The op
// goes on at next.
func (o *fileOp) sleep(d float64, next opStage) bool {
	o.at = next
	if o.p.SleepFast(d) {
		return true
	}
	o.p.UnparkAfter(d)
	return false
}

// sleepUntil ends a stage as SleepUntil(t) would: at once when t is not
// in the future.
func (o *fileOp) sleepUntil(t float64, next opStage) bool {
	if d := t - o.p.Now(); d > 0 {
		return o.sleep(d, next)
	}
	o.at = next
	return true
}
