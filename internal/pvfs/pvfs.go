// Package pvfs models Intrepid's second parallel file system, PVFS2 — the
// lock-free alternative the paper wanted to compare GPFS against (Section
// V-C1) but could not measure fairly because client-side caching "was (and
// still is) turned off on PVFS".
//
// The model differs from internal/gpfs exactly where the real systems
// differ — in policy, which is all this package contains:
//
//   - No byte-range locks: PVFS performs no locking at all; applications
//     are responsible for non-conflicting writes (storage.LockFree). The
//     nf=1 token-serial penalty of GPFS does not exist here.
//   - No client/ION write-behind cache: every write is synchronous to the
//     servers (storage.StripeSync, the cache-off configuration the paper
//     describes), so write calls block for the full commit and writers
//     cannot overlap commits with their next aggregation round.
//   - Distributed metadata: file metadata is hashed across the servers
//     (storage.HashedMDS), so a create storm spreads over NumServers queues
//     instead of thrashing a single metadata server. 1PFPP degrades far
//     more gracefully than on GPFS — at the price of every write being
//     synchronous.
//
// Everything else — striping, the pset funnel, the Ethernet, the
// shared-storage noise model — is the shared mechanism in internal/storage,
// since the two file systems shared Intrepid's physical storage hardware.
package pvfs

import (
	"repro/internal/fsys"
	"repro/internal/machine"
	"repro/internal/storage"
)

// Config holds the PVFS model parameters: the shared storage mechanism. PVFS
// metadata is distributed: creates hash to one of NumServers metadata queues
// (storage.HashedMDS, whose costs are constants).
type Config struct {
	storage.Config
}

// DefaultConfig returns the PVFS-on-Intrepid model parameters.
func DefaultConfig() Config {
	sc := storage.DefaultConfig()
	sc.BlockSize = 64 << 10 // stripe unit across servers (PVFS default)
	// One client's synchronous request pipeline on one file: without
	// caching there is no write-behind to hide round trips, so the
	// effective per-stream rate is below the GPFS client's.
	sc.ClientStreamBW = 35e6
	return Config{Config: sc}
}

// FileSystem is a mounted PVFS volume: the shared storage core composed
// with the PVFS policies. It implements fsys.System.
type FileSystem struct {
	*storage.Core
}

var _ fsys.System = (*FileSystem)(nil)

// New mounts a PVFS volume on the machine.
func New(m *machine.Machine, cfg Config) (*FileSystem, error) {
	core, err := storage.New(m, cfg.Config, storage.Backend{
		Name:        "pvfs",
		ServerName:  "pvfs",
		Metadata:    &storage.HashedMDS{},
		Concurrency: storage.LockFree{},
		Data:        storage.StripeSync{},
	})
	if err != nil {
		return nil, err
	}
	return &FileSystem{Core: core}, nil
}

func init() {
	fsys.Register("pvfs", func(m *machine.Machine, opt fsys.MountOptions) (fsys.System, error) {
		cfg := DefaultConfig()
		if opt.Quiet {
			cfg.NoiseProb = 0
		}
		return New(m, cfg)
	})
}
