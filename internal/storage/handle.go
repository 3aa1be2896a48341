package storage

import (
	"fmt"

	"repro/internal/data"
	"repro/internal/sim"
)

// Handle is an open file descriptor. Handles may be shared across ranks
// (collective opens hand the same handle to every rank), mirroring MPI-IO
// shared file handles.
type Handle struct {
	c      *Core
	f      *File
	closed bool
	// outstanding counts in-flight write-behind commits per client, so Sync
	// can wait for exactly this handle's traffic; total covers Close. A
	// synchronous data path never registers commits, so its Sync and the
	// Close-side wait degenerate to no-ops.
	outstanding map[int]int
	total       int
	syncWait    map[int][]*sim.Proc
	closeWait   []*sim.Proc
	// commitErr is the first write-behind commit failure recorded against
	// the handle: fire-and-forget paths cannot return it from WriteAt, so
	// Close (and Err) surface it — the fsync-reports-the-loss model.
	commitErr error
}

var _ interface {
	WriteAt(p *sim.Proc, rank int, off int64, buf data.Buf) error
	ReadAt(p *sim.Proc, rank int, off, n int64) (data.Buf, error)
} = (*Handle)(nil)

func (c *Core) newHandle(f *File) *Handle {
	return &Handle{c: c, f: f, outstanding: make(map[int]int), syncWait: make(map[int][]*sim.Proc)}
}

// File returns the handle's file.
func (h *Handle) File() *File { return h.f }

// TotalOutstanding returns the handle's in-flight commit count across all
// clients.
func (h *Handle) TotalOutstanding() int { return h.total }

// AddOutstanding registers one in-flight commit for client. Called by data
// paths that complete asynchronously.
func (h *Handle) AddOutstanding(client int) {
	h.outstanding[client]++
	h.total++
}

// setCommitErr records the first asynchronous commit failure on the handle.
func (h *Handle) setCommitErr(err error) {
	if h.commitErr == nil {
		h.commitErr = err
	}
}

// Err returns the first commit failure recorded on the handle, if any.
func (h *Handle) Err() error { return h.commitErr }

// DoneOutstanding retires one commit and wakes any drained waiters.
func (h *Handle) DoneOutstanding(client int) {
	h.outstanding[client]--
	h.total--
	if h.outstanding[client] == 0 {
		for _, p := range h.syncWait[client] {
			p.Unpark()
		}
		delete(h.syncWait, client)
	}
	if h.total == 0 {
		for _, p := range h.closeWait {
			p.Unpark()
		}
		h.closeWait = nil
	}
}

// WriteAt writes buf at offset off through the full storage path: pset
// funnel cut-through, the concurrency policy's acquisition, the per-client
// stream pipeline, then the data path's commit schedule. How much of that
// the caller perceives is the data path's wait.
func (h *Handle) WriteAt(p *sim.Proc, rank int, off int64, buf data.Buf) error {
	if h.closed {
		return h.c.errClosed()
	}
	if buf.Len() == 0 {
		return nil
	}
	c := h.c
	c.TrackBurst(rank)

	prev, t0 := p.Enter(c.recLayer)

	// 1. Data cuts through the pset funnel into the ION packet by packet
	// while the client stream drains it toward the servers.
	treeEnd := c.funnelIn(p, rank, buf.Len())
	// 2. Whatever the concurrency policy requires before data moves
	// (byte-range tokens serialized at the file's metanode, or nothing).
	if c.rec != nil {
		lt0 := p.Now()
		c.lock.AcquireWrite(p, c, rank, h.f, off, buf.Len())
		if lt1 := p.Now(); lt1 > lt0 {
			c.rec.Span(c.recLayer, "lock.acquire", rank, lt0, lt1, 0)
		}
	} else {
		c.lock.AcquireWrite(p, c, rank, h.f, off, buf.Len())
	}
	// 3. The client stream pipeline drains toward the servers. Streams are
	// per (file, rank): the ION's CIOD proxies each compute process's I/O
	// through its own stream, so distinct writers on one pset do not share
	// a pipeline, while one writer's consecutive writes to a file do.
	_, streamEnd := h.f.Stream(rank, c.cfg.ClientStreamBW).Transfer(p.Now(), buf.Len())
	if streamEnd < treeEnd {
		streamEnd = treeEnd
	}
	// 4+5. The data path schedules the Ethernet hops and striped server
	// commits (write-behind, synchronous, or burst-buffer absorption) and
	// hands back the caller's perceived wait.
	wait := c.path.Commit(c, h, rank, streamEnd, off, buf.Len())

	h.f.store.Write(off, buf)
	c.Stats.BytesWritten += buf.Len()

	err := wait(p)
	p.Leave(prev, c.recLayer, "fs.write", rank, t0, buf.Len())
	return err
}

// ReadAt reads n bytes at offset off, charging the data path's return path.
// It returns real bytes where the file holds content and a synthetic payload
// otherwise. Reads past EOF, or at a negative offset or length, return an
// error.
func (h *Handle) ReadAt(p *sim.Proc, rank int, off, n int64) (data.Buf, error) {
	if h.closed {
		return data.Buf{}, h.c.errClosed()
	}
	if off < 0 || n < 0 {
		return data.Buf{}, fmt.Errorf("%s: read of %d bytes at offset %d of %s", h.c.name, n, off, h.f.name)
	}
	if off > h.f.store.Size()-n {
		return data.Buf{}, fmt.Errorf("%s: read [%d,%d) beyond EOF %d of %s", h.c.name, off, off+n, h.f.store.Size(), h.f.name)
	}
	c := h.c
	prev, t0 := p.Enter(c.recLayer)
	err := c.path.Read(p, c, h, rank, off, n)
	p.Leave(prev, c.recLayer, "fs.read", rank, t0, n)
	if err != nil {
		return data.Buf{}, err
	}
	c.Stats.BytesRead += n
	return h.f.store.Read(off, n), nil
}

// Sync blocks until the caller's outstanding commits on this handle have
// reached the servers (immediately, on a synchronous data path).
func (h *Handle) Sync(p *sim.Proc, rank int) {
	client := h.c.m.PsetOfRank(rank)
	for h.outstanding[client] > 0 {
		h.syncWait[client] = append(h.syncWait[client], p)
		p.Park()
	}
}

// Close waits out all outstanding commits on the handle (from any client —
// a shared handle is closed once, by convention by the lowest rank holding
// it) and releases it at the metadata service.
func (h *Handle) Close(p *sim.Proc, rank int) error {
	if h.closed {
		return h.c.errClosed()
	}
	c := h.c
	prev, t0 := p.Enter(c.recLayer)
	for h.total > 0 {
		h.closeWait = append(h.closeWait, p)
		p.Park()
	}
	h.c.ShipToION(p, rank, 256)
	h.c.meta.Close(p, h.c, h.f.name)
	p.Leave(prev, c.recLayer, "md.close", rank, t0, 0)
	h.closed = true
	h.c.Stats.Closes++
	// Surface any asynchronous commit loss the way fsync/close would: the
	// file is released, but the caller learns its data did not all land.
	return h.commitErr
}

// Size returns the file's current size.
func (h *Handle) Size() int64 { return h.f.store.Size() }

// Name returns the file's path.
func (h *Handle) Name() string { return h.f.name }

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
