package storage

import (
	"repro/internal/fsys"
	"repro/internal/machine"
)

// GPFSConfig holds the GPFS model parameters: the shared storage mechanism
// plus the write-behind switch. The GPFS policies' costs are constants of
// CentralizedMDS and TokenManager.
type GPFSConfig struct {
	Config

	// WriteBehind enables the ION-side cache: WriteAt returns once data has
	// reached the ION and tokens are held; the disk commit proceeds in the
	// background and Close/Sync waits for it. Disabled models PVFS-like
	// cache-off behaviour.
	WriteBehind bool
}

// DefaultGPFS returns parameters calibrated against the paper's Intrepid
// GPFS measurements (see EXPERIMENTS.md for the calibration).
func DefaultGPFS() GPFSConfig {
	sc := DefaultConfig()
	sc.BlockSize = 4 << 20 // file system block, also the lock granularity
	// The synchronous client flush pipeline (token checks, indirect-block
	// updates, bounded in-flight data per stream): the knob that makes
	// "more files == more parallel streams" true, per Figure 8.
	sc.ClientStreamBW = 50e6
	return GPFSConfig{Config: sc, WriteBehind: true}
}

// NewGPFS mounts a GPFS-like file system on the machine: a centralized
// directory-scanning metadata server, a byte-range token manager and a
// write-behind block pipeline over the shared core.
func NewGPFS(m *machine.Machine, cfg GPFSConfig) (*Core, error) {
	return New(m, cfg.Config, Backend{
		Name:        "gpfs",
		ServerName:  "nsd",
		Metadata:    &CentralizedMDS{},
		Concurrency: TokenManager{},
		Data:        &BlockPipeline{WriteBehind: cfg.WriteBehind},
	})
}

// DefaultPVFS returns the PVFS-on-Intrepid model parameters.
func DefaultPVFS() Config {
	sc := DefaultConfig()
	sc.BlockSize = 64 << 10 // stripe unit across servers (PVFS default)
	// One client's synchronous request pipeline on one file: without
	// caching there is no write-behind to hide round trips, so the
	// effective per-stream rate is below the GPFS client's.
	sc.ClientStreamBW = 35e6
	return sc
}

// NewPVFS mounts a PVFS volume on the machine: metadata hashed across the
// servers, no locks and synchronous striped commits over the shared core.
func NewPVFS(m *machine.Machine, cfg Config) (*Core, error) {
	return New(m, cfg, Backend{
		Name:        "pvfs",
		ServerName:  "pvfs",
		Metadata:    &HashedMDS{},
		Concurrency: LockFree{},
		Data:        StripeSync{},
	})
}

func init() {
	fsys.Register("gpfs", func(m *machine.Machine, opt fsys.MountOptions) (fsys.System, error) {
		cfg := DefaultGPFS()
		if opt.Quiet {
			cfg.NoiseProb = 0
		}
		return NewGPFS(m, cfg)
	})
	fsys.Register("pvfs", func(m *machine.Machine, opt fsys.MountOptions) (fsys.System, error) {
		cfg := DefaultPVFS()
		if opt.Quiet {
			cfg.NoiseProb = 0
		}
		return NewPVFS(m, cfg)
	})
}
