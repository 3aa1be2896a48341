package fsys

import (
	"repro/internal/machine"
	"repro/internal/registry"
)

// Backend is a typed file-system backend name ("gpfs", "pvfs", "bbuf").
// It replaces the bare strings experiments used to pass around: a Backend
// resolves through the registry, and an unknown one fails with a typed
// error listing the valid choices instead of silently mounting a default.
type Backend string

// DefaultBackend is what an empty Backend resolves to (the paper's headline
// file system).
const DefaultBackend Backend = "gpfs"

// MountOptions carries the cross-backend mount knobs.
type MountOptions struct {
	// Quiet disables the shared-storage noise model (NoiseProb = 0).
	// Metadata jitter stays on, so a quiet run still depends on the seed.
	Quiet bool

	// Burst-buffer fleet knobs (the -bb and -drain flags); backends without
	// a buffer tier ignore them.

	// BBNodes sizes the burst-buffer fleet (0 = one private node per ION,
	// the legacy shape).
	BBNodes int
	// BBDrainBW overrides the per-node background drain bandwidth in
	// bytes/s (0 = the backend's default).
	BBDrainBW float64
	// Drain names the drain-scheduler policy from the bbuf registry
	// ("" = fifo).
	Drain string
}

// MountFunc mounts a backend's file system model on a machine.
type MountFunc func(m *machine.Machine, opt MountOptions) (System, error)

var backends = registry.New[MountFunc]("fsys backend", string(DefaultBackend))

// Register installs a backend under its name. Backends self-register from
// their package init: internal/storage registers gpfs and pvfs,
// internal/bbuf the burst buffer.
func Register(b Backend, fn MountFunc) { backends.Register(string(b), fn) }

// Lookup resolves a backend name. The empty string resolves to
// DefaultBackend; an unregistered name returns a *registry.UnknownError.
func Lookup(name string) (Backend, error) {
	if name == "" {
		name = string(DefaultBackend)
	}
	if _, err := backends.Lookup(name); err != nil {
		return "", err
	}
	return Backend(name), nil
}

// Mount resolves and mounts a backend on the machine. An empty Backend
// mounts DefaultBackend.
func Mount(b Backend, m *machine.Machine, opt MountOptions) (System, error) {
	mount, err := backends.Lookup(string(b))
	if err != nil {
		return nil, err
	}
	return mount(m, opt)
}
