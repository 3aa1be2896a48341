package storage

import (
	"repro/internal/data"
	"repro/internal/sim"
)

// The storage chain as blocking code in the caller's own phase, one wait
// after another: the ship to the ION, the metadata queue and service, the
// concurrency policy's acquisition, the client stream, the data path's
// commit and the caller's wait for it, and the write-behind Sync and Close
// waits. It is the reference the core's file operations must match event
// for event (refcheck_test.go); the external tests reach it through these
// exported names.

// RefCreate is Create as blocking code.
func RefCreate(c *Core, p *sim.Proc, rank int, path string) (*Handle, error) {
	prev, t0 := p.Enter(c.recLayer)
	refShip(c, p, rank, 512)
	refMeta(c, p, MetaCreate, path)
	p.Leave(prev, c.recLayer, "md.create", rank, t0, 0)
	return c.create(path)
}

// RefOpen is Open as blocking code.
func RefOpen(c *Core, p *sim.Proc, rank int, path string) (*Handle, error) {
	prev, t0 := p.Enter(c.recLayer)
	refShip(c, p, rank, 512)
	refMeta(c, p, MetaOpen, path)
	p.Leave(prev, c.recLayer, "md.open", rank, t0, 0)
	return c.open(path)
}

// refMeta is a namespace op's metadata service as blocking code: the
// queue, the service at its head, and the scan after it.
func refMeta(c *Core, p *sim.Proc, op MetaOp, path string) {
	q := c.meta.Queue(c, op, path)
	q.Acquire(p)
	p.Sleep(c.meta.Service(c, op, q))
	q.Release()
	if d, ok := c.meta.Scan(c, op, path); ok {
		p.Sleep(d)
	}
}

// refShip is the blocking ship of a control message to the rank's ION.
func refShip(c *Core, p *sim.Proc, rank int, size int64) {
	p.SleepUntil(c.funnelIn(p, rank, size))
}

// RefWriteAt is WriteAt as blocking code.
func RefWriteAt(h *Handle, p *sim.Proc, rank int, off int64, buf data.Buf) error {
	if h.closed {
		return h.c.errClosed()
	}
	if buf.Len() == 0 {
		return nil
	}
	c := h.c
	c.TrackBurst(rank)
	prev, t0 := p.Enter(c.recLayer)
	treeEnd := c.funnelIn(p, rank, buf.Len())
	lt0 := p.Now()
	if w := c.lock.AcquireWrite(c, rank, h.f, off, buf.Len()); w.Q != nil {
		w.Q.Acquire(p)
		p.Sleep(w.Service)
		c.lock.Granted(c, rank, h.f, off, buf.Len(), w)
	}
	if lt1 := p.Now(); c.rec != nil && lt1 > lt0 {
		c.rec.Span(c.recLayer, "lock.acquire", rank, lt0, lt1, 0)
	}
	_, streamEnd := h.f.Stream(rank, c.cfg.ClientStreamBW).Transfer(p.Now(), buf.Len())
	if streamEnd < treeEnd {
		streamEnd = treeEnd
	}
	w := c.path.Commit(c, h, rank, streamEnd, off, buf.Len())
	h.f.store.Write(off, buf)
	c.Stats.BytesWritten += buf.Len()
	p.SleepUntil(w.Until)
	if w.call != nil && w.call.remaining > 0 {
		w.call.proc = p
		p.Park()
	}
	err := w.done()
	p.Leave(prev, c.recLayer, "fs.write", rank, t0, buf.Len())
	return err
}

// RefSync is Sync as blocking code.
func RefSync(h *Handle, p *sim.Proc, rank int) {
	client := h.c.m.PsetOfRank(rank)
	for h.outstanding[client] > 0 {
		if h.syncWait == nil {
			h.syncWait = make(map[int][]*sim.Proc)
		}
		h.syncWait[client] = append(h.syncWait[client], p)
		p.Park()
	}
}

// RefClose is Close as blocking code.
func RefClose(h *Handle, p *sim.Proc, rank int) error {
	if h.closed {
		return h.c.errClosed()
	}
	c := h.c
	prev, t0 := p.Enter(c.recLayer)
	for h.total > 0 {
		h.closeWait = append(h.closeWait, p)
		p.Park()
	}
	refShip(c, p, rank, 256)
	refMeta(c, p, MetaClose, h.f.name)
	p.Leave(prev, c.recLayer, "md.close", rank, t0, 0)
	h.closed = true
	c.Stats.Closes++
	return h.commitErr
}

// Contents returns the bytes path holds, synthetic where it was written
// synthetically, without charging time.
func (c *Core) Contents(path string) data.Buf {
	f := c.files[path]
	return f.store.Read(0, f.store.Size())
}
