// Package fsys defines the parallel file system interface the
// checkpointing strategies and the MPI-IO layer write through. Intrepid
// mounted two parallel file systems — GPFS and PVFS — and the paper
// discusses both (Section V-C1); implementing against this interface lets
// every strategy and experiment run unchanged on either model (both in
// internal/storage).
package fsys

import (
	"errors"

	"repro/internal/data"
	"repro/internal/machine"
	"repro/internal/sim"
)

// Namespace errors every storage model returns, wrapped with the backend
// name and path ("gpfs: file does not exist: ckpt/f0"); match with
// errors.Is.
var (
	ErrNotExist = errors.New("file does not exist")
	ErrExists   = errors.New("file already exists")
	ErrClosed   = errors.New("handle is closed")
)

// ErrServerDown is the typed failure the storage models return under fault
// injection: the file server owning the addressed stripe is down and no
// failover target survived. It is defined here so checkpoint strategies can
// classify errors without importing the storage core. Backends wrap it with
// detail; match with errors.Is or Unavailable.
var ErrServerDown = errors.New("file server down")

// Unavailable reports whether err is a fault-injection storage failure —
// one a fault-aware checkpoint strategy should absorb into loss accounting
// rather than abort the run over.
func Unavailable(err error) bool {
	return errors.Is(err, ErrServerDown)
}

// System is a mounted parallel file system shared by the whole machine.
type System interface {
	// Name identifies the file system model ("gpfs", "pvfs").
	Name() string
	// Machine returns the machine the file system is mounted on.
	Machine() *machine.Machine
	// BlockSize is the stripe/lock granularity relevant to I/O middleware
	// alignment decisions.
	BlockSize() int64

	// Create makes a new file; it fails if the path exists. It awaits
	// StartCreate at once.
	Create(p *sim.Proc, rank int, path string) (Handle, error)
	// StartCreate begins p's Create as rank and returns it as the
	// continuation p awaits (sim.Proc.Then from a body, sim.Proc.AwaitNow
	// from a phase), which sets *h and *err once it finished.
	StartCreate(p *sim.Proc, rank int, path string, h *Handle, err *error) sim.Cont
	// Open opens an existing file. It awaits StartOpen at once.
	Open(p *sim.Proc, rank int, path string) (Handle, error)
	// StartOpen begins p's Open as StartCreate begins a Create.
	StartOpen(p *sim.Proc, rank int, path string, h *Handle, err *error) sim.Cont

	// Preload installs a pre-existing synthetic input file without charging
	// simulation time.
	Preload(path string, size int64)
	// PreloadBytes installs a pre-existing input file with real contents
	// (meshes, parameter files) without charging simulation time.
	PreloadBytes(path string, contents []byte)
	// Exists reports whether path exists (model introspection, no time).
	Exists(path string) bool
	// FileSize returns a file's size (model introspection, no time).
	FileSize(path string) (int64, error)
	// NumFiles reports how many files exist (model introspection, no time).
	NumFiles() int
}

// Handle is an open file descriptor; it may be shared across ranks the way
// MPI-IO shares collective handles.
type Handle interface {
	// WriteAt writes buf at off through the full storage path. It awaits
	// StartWriteAt at once.
	WriteAt(p *sim.Proc, rank int, off int64, buf data.Buf) error
	// StartWriteAt begins p's WriteAt as rank and returns it as the
	// continuation p awaits, which sets *err once it finished.
	StartWriteAt(p *sim.Proc, rank int, off int64, buf data.Buf, err *error) sim.Cont
	// ReadAt reads n bytes at off; payloads are real where the file holds
	// content and synthetic otherwise.
	ReadAt(p *sim.Proc, rank int, off, n int64) (data.Buf, error)
	// StartSync begins p's sync as rank and returns it as the
	// continuation p awaits: it ends once the caller's outstanding
	// write-behind commits are durable.
	StartSync(p *sim.Proc, rank int) sim.Cont
	// Err returns the first asynchronous commit failure recorded on the
	// handle (write-behind paths cannot return it from WriteAt), or nil.
	Err() error
	// Close syncs and releases the handle; like fsync, it also reports any
	// recorded commit failure. It awaits StartClose at once.
	Close(p *sim.Proc, rank int) error
	// StartClose begins p's Close as rank and returns it as the
	// continuation p awaits, which sets *err once it finished.
	StartClose(p *sim.Proc, rank int, err *error) sim.Cont
	// Size returns the file's current size.
	Size() int64
	// Name returns the file's path.
	Name() string
}
