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
	outstanding map[int]int // nil until the first commit registers
	total       int
	syncWait    map[int][]*sim.Proc // nil until the first Sync waits
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
	return &Handle{c: c, f: f}
}

// File returns the handle's file.
func (h *Handle) File() *File { return h.f }

// TotalOutstanding returns the handle's in-flight commit count across all
// clients.
func (h *Handle) TotalOutstanding() int { return h.total }

// AddOutstanding registers one in-flight commit for client. Called by data
// paths that complete asynchronously.
func (h *Handle) AddOutstanding(client int) {
	if h.outstanding == nil {
		h.outstanding = make(map[int]int)
	}
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
func (h *Handle) WriteAt(p *sim.Proc, rank int, off int64, buf data.Buf) (err error) {
	p.AwaitNow(h.StartWriteAt(p, rank, off, buf, &err))
	return err
}

// StartWriteAt implements fsys.Handle.
func (h *Handle) StartWriteAt(p *sim.Proc, rank int, off int64, buf data.Buf, err *error) sim.Cont {
	o := h.c.startOp(p, opWrite, rank, err)
	o.h, o.off, o.buf = h, off, buf
	return o
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

// StartSync implements fsys.Handle: the sync ends once the caller's
// outstanding commits on this handle reached the servers (at once, on a
// synchronous data path).
func (h *Handle) StartSync(p *sim.Proc, rank int) sim.Cont {
	o := h.c.startOp(p, opSync, rank, nil)
	o.h = h
	return o
}

// Close waits out all outstanding commits on the handle (from any client —
// a shared handle is closed once, by convention by the lowest rank holding
// it) and releases it at the metadata service. Like fsync, it surfaces any
// asynchronous commit loss: the file is released, but the caller learns
// its data did not all land.
func (h *Handle) Close(p *sim.Proc, rank int) (err error) {
	p.AwaitNow(h.StartClose(p, rank, &err))
	return err
}

// StartClose implements fsys.Handle.
func (h *Handle) StartClose(p *sim.Proc, rank int, err *error) sim.Cont {
	o := h.c.startOp(p, opClose, rank, err)
	o.h, o.path = h, h.f.name
	return o
}

// Size returns the file's current size.
func (h *Handle) Size() int64 { return h.f.store.Size() }

// Name returns the file's path.
func (h *Handle) Name() string { return h.f.name }
