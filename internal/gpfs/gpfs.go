// Package gpfs models a GPFS-like shared parallel file system as deployed on
// Intrepid: files block-striped across NSD file servers, a metadata server
// whose create cost grows with directory population, a per-file byte-range
// token (lock) manager, per-client streaming limits, an ION-side write-behind
// cache, and a seeded heavy-tail noise model for the shared storage system.
//
// The model reproduces the queueing behaviours that dominate the paper's
// results:
//
//   - 1PFPP's collapse: np file creates in one directory serialize at the
//     metadata server, with per-create cost growing with the directory's
//     entry count (directory-block scanning and locking).
//   - nf=1's penalty: every block token for a shared file is granted by that
//     file's metanode serially, so tens of thousands of token requests
//     against a single file serialize; unaligned writes additionally revoke
//     tokens held by other clients.
//   - The nf sweep: few files mean few client streams (each capped by the
//     per-stream pipeline bandwidth); many files mean many creates and more
//     exposure to noise.
//   - The 64K coIO drop: heavy-tail service-time spikes whose probability
//     grows with the number of concurrently writing clients.
//
// The storage-path mechanism — striping, per-server queues, the compute
// node -> pset tree funnel -> ION -> 10 GbE -> file server charging, the
// noise model — lives in internal/storage; this package is the GPFS policy
// composition over it: a centralized directory-scanning metadata server
// (storage.CentralizedMDS), a byte-range token manager
// (storage.TokenManager), and a write-behind block pipeline
// (storage.BlockPipeline).
package gpfs

import (
	"repro/internal/fsys"
	"repro/internal/machine"
	"repro/internal/storage"
)

// FileSystem implements fsys.System.
var _ fsys.System = (*FileSystem)(nil)

// Config holds the file system model parameters: the shared storage
// mechanism plus the GPFS write-behind switch. The GPFS policies' costs are
// constants of storage.CentralizedMDS and storage.TokenManager.
type Config struct {
	storage.Config

	// WriteBehind enables the ION-side cache: WriteAt returns once data has
	// reached the ION and tokens are held; the disk commit proceeds in the
	// background and Close/Sync waits for it. Disabled models PVFS-like
	// cache-off behaviour.
	WriteBehind bool
}

// DefaultConfig returns parameters calibrated against the paper's Intrepid
// GPFS measurements (see EXPERIMENTS.md for the calibration).
func DefaultConfig() Config {
	sc := storage.DefaultConfig()
	sc.BlockSize = 4 << 20 // file system block, also the lock granularity
	// The synchronous client flush pipeline (token checks, indirect-block
	// updates, bounded in-flight data per stream): the knob that makes
	// "more files == more parallel streams" true, per Figure 8.
	sc.ClientStreamBW = 50e6
	return Config{
		Config:      sc,
		WriteBehind: true,
	}
}

// FileSystem is one mounted GPFS-like file system shared by the whole
// machine: the shared storage core composed with the GPFS policies.
type FileSystem struct {
	*storage.Core
}

// New mounts a file system on the machine.
func New(m *machine.Machine, cfg Config) (*FileSystem, error) {
	core, err := storage.New(m, cfg.Config, storage.Backend{
		Name:        "gpfs",
		ServerName:  "nsd",
		Metadata:    &storage.CentralizedMDS{},
		Concurrency: storage.TokenManager{},
		Data:        &storage.BlockPipeline{WriteBehind: cfg.WriteBehind},
	})
	if err != nil {
		return nil, err
	}
	return &FileSystem{Core: core}, nil
}

// MustNew is New, panicking on error.
func MustNew(m *machine.Machine, cfg Config) *FileSystem {
	fs, err := New(m, cfg)
	if err != nil {
		panic(err)
	}
	return fs
}

func init() {
	fsys.Register("gpfs", func(m *machine.Machine, opt fsys.MountOptions) (fsys.System, error) {
		cfg := DefaultConfig()
		if opt.Quiet {
			cfg.NoiseProb = 0
		}
		return New(m, cfg)
	})
}
