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
// the serial prefix. On a serial kernel the bracketing is a counter bump.
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

func (g *guardedSystem) Create(p *sim.Proc, rank int, path string) (Handle, error) {
	p.EnterShared()
	h, err := g.fs.Create(p, rank, path)
	p.ExitShared()
	if h == nil {
		return nil, err
	}
	return &guardedHandle{h: h}, err
}

func (g *guardedSystem) Open(p *sim.Proc, rank int, path string) (Handle, error) {
	p.EnterShared()
	h, err := g.fs.Open(p, rank, path)
	p.ExitShared()
	if h == nil {
		return nil, err
	}
	return &guardedHandle{h: h}, err
}

func (g *guardedSystem) Preload(path string, size int64)           { g.fs.Preload(path, size) }
func (g *guardedSystem) PreloadBytes(path string, contents []byte) { g.fs.PreloadBytes(path, contents) }
func (g *guardedSystem) Exists(path string) bool                   { return g.fs.Exists(path) }
func (g *guardedSystem) FileSize(path string) (int64, error)       { return g.fs.FileSize(path) }
func (g *guardedSystem) NumFiles() int                             { return g.fs.NumFiles() }

type guardedHandle struct {
	h Handle
}

func (g *guardedHandle) WriteAt(p *sim.Proc, rank int, off int64, buf data.Buf) error {
	p.EnterShared()
	err := g.h.WriteAt(p, rank, off, buf)
	p.ExitShared()
	return err
}

func (g *guardedHandle) ReadAt(p *sim.Proc, rank int, off, n int64) (data.Buf, error) {
	p.EnterShared()
	buf, err := g.h.ReadAt(p, rank, off, n)
	p.ExitShared()
	return buf, err
}

func (g *guardedHandle) Sync(p *sim.Proc, rank int) {
	p.EnterShared()
	g.h.Sync(p, rank)
	p.ExitShared()
}

func (g *guardedHandle) Err() error { return g.h.Err() }

func (g *guardedHandle) Close(p *sim.Proc, rank int) error {
	p.EnterShared()
	err := g.h.Close(p, rank)
	p.ExitShared()
	return err
}

func (g *guardedHandle) Size() int64  { return g.h.Size() }
func (g *guardedHandle) Name() string { return g.h.Name() }
