package fsys

import (
	"repro/internal/data"
	"repro/internal/machine"
	"repro/internal/sim"
)

// Guard wraps a file system so every time-charging operation runs in a
// kernel shared section. Storage state — server resources, stripe maps,
// write-behind queues — is global to the machine, so under a partitioned
// kernel it must only ever be touched from the globally-ordered exclusive
// lane; the guard suspends the calling process out of its partition lane
// for exactly the duration of the call, which is what makes checkpoint
// strategies correct under sharding without a single storage-aware line in
// them. Introspection methods (Exists, FileSize, ...) pass through: they
// read state whose writes are all exclusive, and a lane never runs ahead
// of the earliest pending exclusive event, so a lane read observes exactly
// the serial prefix. Every call the guard brackets is the guarded
// system's continuation (section), and its blocking form awaits it at
// once.
func Guard(fs System) System { return &guardedSystem{fs: fs} }

type guardedSystem struct {
	fs System
}

// Unwrap exposes the guarded system for optional-interface discovery
// (fsys.AsDrainInfo); time-charging calls must still go through the guard.
func (g *guardedSystem) Unwrap() System { return g.fs }

func (g *guardedSystem) Name() string              { return g.fs.Name() }
func (g *guardedSystem) Machine() *machine.Machine { return g.fs.Machine() }
func (g *guardedSystem) BlockSize() int64          { return g.fs.BlockSize() }

func (g *guardedSystem) Create(p *sim.Proc, rank int, path string) (h Handle, err error) {
	p.AwaitNow(g.StartCreate(p, rank, path, &h, &err))
	return h, err
}

func (g *guardedSystem) StartCreate(p *sim.Proc, rank int, path string, h *Handle, err *error) sim.Cont {
	s := &section{p: p, out: h}
	s.begin = func() sim.Cont { return g.fs.StartCreate(p, rank, path, &s.h, err) }
	return s
}

func (g *guardedSystem) Open(p *sim.Proc, rank int, path string) (h Handle, err error) {
	p.AwaitNow(g.StartOpen(p, rank, path, &h, &err))
	return h, err
}

func (g *guardedSystem) StartOpen(p *sim.Proc, rank int, path string, h *Handle, err *error) sim.Cont {
	s := &section{p: p, out: h}
	s.begin = func() sim.Cont { return g.fs.StartOpen(p, rank, path, &s.h, err) }
	return s
}

func (g *guardedSystem) Preload(path string, size int64)           { g.fs.Preload(path, size) }
func (g *guardedSystem) PreloadBytes(path string, contents []byte) { g.fs.PreloadBytes(path, contents) }
func (g *guardedSystem) Exists(path string) bool                   { return g.fs.Exists(path) }
func (g *guardedSystem) FileSize(path string) (int64, error)       { return g.fs.FileSize(path) }
func (g *guardedSystem) NumFiles() int                             { return g.fs.NumFiles() }

type guardedHandle struct {
	h Handle
}

func (g *guardedHandle) WriteAt(p *sim.Proc, rank int, off int64, buf data.Buf) (err error) {
	p.AwaitNow(g.StartWriteAt(p, rank, off, buf, &err))
	return err
}

func (g *guardedHandle) StartWriteAt(p *sim.Proc, rank int, off int64, buf data.Buf, err *error) sim.Cont {
	return &section{p: p, begin: func() sim.Cont { return g.h.StartWriteAt(p, rank, off, buf, err) }}
}

func (g *guardedHandle) ReadAt(p *sim.Proc, rank int, off, n int64) (data.Buf, error) {
	p.EnterShared()
	buf, err := g.h.ReadAt(p, rank, off, n)
	p.ExitShared()
	return buf, err
}

func (g *guardedHandle) StartSync(p *sim.Proc, rank int) sim.Cont {
	return &section{p: p, begin: func() sim.Cont { return g.h.StartSync(p, rank) }}
}

func (g *guardedHandle) Err() error { return g.h.Err() }

func (g *guardedHandle) Close(p *sim.Proc, rank int) (err error) {
	p.AwaitNow(g.StartClose(p, rank, &err))
	return err
}

func (g *guardedHandle) StartClose(p *sim.Proc, rank int, err *error) sim.Cont {
	return &section{p: p, begin: func() sim.Cont { return g.h.StartClose(p, rank, err) }}
}

func (g *guardedHandle) Size() int64  { return g.h.Size() }
func (g *guardedHandle) Name() string { return g.h.Name() }

// section is a guarded call in flight: the guarded system's continuation
// run in a kernel shared section, as the continuation the caller awaits.
// The call begins inside the section, since beginning it touches storage
// state. On the partitioned kernel the section borrows a phase of the
// caller that enters the section and awaits the call there
// (sim.Proc.Borrow), as a collective's shared hop does; on a serial
// kernel, where the section is only a counter, the call runs as it is.
type section struct {
	p        *sim.Proc
	begin    func() sim.Cont // begins the guarded call
	call     sim.Cont        // the guarded call, once it began
	h        Handle          // an open's handle, guarded into *out once the call finished
	out      *Handle         // where an open's handle goes; nil for the other calls
	borrowed bool
}

func (s *section) Continue() bool {
	switch {
	case !s.p.Kernel().Sharded():
		if s.call == nil {
			s.call = s.begin()
		}
		if !s.call.Continue() {
			return false
		}
	case !s.borrowed:
		s.borrowed = true
		s.p.Borrow(s.run)
		return false
	}
	if s.out != nil {
		*s.out = nil
		if s.h != nil {
			*s.out = &guardedHandle{h: s.h}
		}
	}
	return true
}

// run is the phase that runs the call inside the shared section.
func (s *section) run(p *sim.Proc) {
	p.EnterShared()
	s.call = s.begin()
	p.AwaitNow(s.call)
	p.ExitShared()
}
