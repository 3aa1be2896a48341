// Package bbuf models an ION-side burst buffer layered over Intrepid's
// shared storage — the checkpointing architecture of later systems (per
// Wang et al.'s burst-buffer system and Gossman et al.'s aggregated
// asynchronous checkpointing), retrofitted onto the paper's machine model.
// Writes are absorbed into I/O-node-local memory at memory speed and
// drained to the shared file servers in the background; the application
// perceives only the absorption. When a node's buffer fills, writes spill
// to the synchronous path until drains free space.
//
// The package contains no storage-path mechanism of its own: it is a policy
// composition over internal/storage — hashed-distributed metadata
// (storage.HashedMDS), no locking (storage.LockFree), and a burst-buffer
// data path (the one policy defined here). The spill path literally reuses
// storage.StripeSync, and the drain's striped-commit math is the same
// revolution grouping the PVFS policy uses — the shared core is what makes
// this backend ~200 lines instead of a third copy of the storage path.
package bbuf

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/fsys"
	"repro/internal/machine"
	"repro/internal/storage"
	"repro/internal/xrand"
)

// Config holds the burst-buffer model parameters: the shared storage
// mechanism behind the drain (the same DDN arrays as the PVFS volume) and
// the ION-local buffer tier. Metadata is PVFS-style hashed
// (storage.HashedMDS, whose costs are constants).
type Config struct {
	storage.Config

	// BufferPerION is each fleet node's buffer capacity. Writes that fit are
	// absorbed at bufferBW and drained in the background; writes that no
	// node can hold spill to the synchronous path until drains free space.
	BufferPerION int64
	DrainBW      float64 // background drain rate per node toward the servers

	// FleetNodes sizes the burst-buffer fleet. Zero (and, equivalently, a
	// size equal to the machine's pset count) is the private shape: one
	// node per ION serving only its own pset — the pre-fleet model, pinned
	// byte-identical by the legacy goldens. Any other size is a shared
	// striped fleet: nodes hosted evenly across the IONs, every pset
	// writing round-robin across them with capacity-aware placement.
	FleetNodes int
	// DrainPolicy names the drain scheduler from the bbuf registry
	// ("" = fifo). FIFO is pass-through (the legacy path); "deadline" and
	// "tenant" hold a per-node backlog an event-driven dispatcher reorders.
	DrainPolicy string
}

// DefaultConfig returns the burst-buffer-on-Intrepid model parameters: a
// 2 GiB buffer per ION (the BG/P ION memory class), absorption near memory
// speed, and a background drain pacing itself below the 10 GbE NIC so it
// coexists with foreground traffic.
func DefaultConfig() Config {
	sc := storage.DefaultConfig()
	sc.BlockSize = 4 << 20 // stripe unit toward the shared servers
	// One rank's CIOD proxy stream into the ION. With a memory-speed buffer
	// behind it, this — not the servers — is what the application perceives.
	sc.ClientStreamBW = 300e6
	return Config{
		Config:       sc,
		BufferPerION: 2 << 30,
		DrainBW:      250e6,
	}
}

// Validate checks the buffer tier; storage.New checks the shared mechanism.
func (c Config) Validate() error {
	if c.BufferPerION < 0 {
		return fmt.Errorf("bbuf: buffer capacity must be non-negative")
	}
	if c.DrainBW <= 0 {
		return fmt.Errorf("bbuf: drain bandwidth must be positive")
	}
	if c.FleetNodes < 0 {
		return fmt.Errorf("bbuf: fleet size must be non-negative (0 = one node per ION)")
	}
	return nil
}

// FileSystem is a mounted burst-buffer file system: the shared storage core
// composed with hashed metadata, no locks, and the burst-buffer fleet data
// path. It implements fsys.System.
type FileSystem struct {
	*storage.Core
	path *fleet
}

var _ fsys.System = (*FileSystem)(nil)

// New mounts a burst-buffer file system on the machine.
func New(m *machine.Machine, cfg Config) (*FileSystem, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sched, err := Lookup(cfg.DrainPolicy)
	if err != nil {
		return nil, err
	}
	path := &fleet{cfg: cfg, sched: sched}
	core, err := storage.New(m, cfg.Config, storage.Backend{
		Name:        "bbuf",
		ServerName:  "bbsrv",
		Metadata:    &storage.HashedMDS{},
		Concurrency: storage.LockFree{},
		Data:        path,
	})
	if err != nil {
		return nil, err
	}
	return &FileSystem{Core: core, path: path}, nil
}

func init() {
	fsys.Register("bbuf", func(m *machine.Machine, opt fsys.MountOptions) (fsys.System, error) {
		cfg := DefaultConfig()
		if opt.Quiet {
			cfg.NoiseProb = 0
		}
		if opt.BBNodes > 0 {
			cfg.FleetNodes = opt.BBNodes
		}
		if opt.BBDrainBW > 0 {
			cfg.DrainBW = opt.BBDrainBW
		}
		if opt.Drain != "" {
			cfg.DrainPolicy = opt.Drain
		}
		return New(m, cfg)
	})
}

// EnableFaults attaches the fault injector to the shared storage core and
// subscribes the buffer tier to ION life-cycle events: a dead ION loses
// every fleet node it hosts — buffered (and in-flight-drain) bytes,
// aggregated into one loss report across the node's fleet — its pset's
// writes spill to the synchronous path until it restores, and drains
// retry/fail over against the shared servers like any other commit.
func (fs *FileSystem) EnableFaults(in *fault.Injector, rng *xrand.RNG) {
	fs.Core.EnableFaults(in, rng)
	fs.path.init(fs.Core)
	in.Subscribe(func(ev fault.Event) {
		if ev.Class != fault.ION || ev.Index >= len(fs.path.originDead) {
			return
		}
		switch ev.Kind {
		case fault.Fail:
			fs.path.ionDown(ev.Index, fs.Core.Kernel().Now())
		case fault.Restore:
			fs.path.ionRestore(ev.Index)
		}
	})
}

// OnLost registers a callback invoked (in kernel time order) whenever
// buffered bytes are written off as lost: an ION death taking the fleet
// nodes it hosts (one aggregated report per fault event, so the recovery
// layer's ClassifyKills sees one consistent number), or a background drain
// exhausting the storage retry budget. The recovery layer uses it to
// invalidate epochs whose durability silently evaporated.
func (fs *FileSystem) OnLost(fn func(ion int, bytes int64, t float64)) {
	fs.path.onLost = fn
}

// Buffer returns the burst-buffer tier's counters.
func (fs *FileSystem) Buffer() BufferStats { return fs.path.stats }

// BufferedBytes returns the bytes currently held in fleet-node buffers
// awaiting drain.
func (fs *FileSystem) BufferedBytes() int64 {
	var total int64
	for _, u := range fs.path.used {
		total += u
	}
	return total
}

// DrainHorizon implements fsys.DrainInfo: the time by which everything
// absorbed so far is expected to have drained to the shared servers. The
// async flush path reports it as drain-queue residency and the recovery
// layer defers epoch seals to it.
func (fs *FileSystem) DrainHorizon() float64 {
	if fs.path.absorb == nil {
		return fs.Core.Kernel().Now()
	}
	return fs.path.drainHorizon(fs.Core.Kernel().Now())
}

// SetTenantOf installs the world-rank→tenant mapping the priority-by-tenant
// drain scheduler consults. The cluster layer calls it once admissions are
// placed; unset means single-tenant.
func (fs *FileSystem) SetTenantOf(fn func(rank int) int) { fs.path.tenantOf = fn }

// SetTenantPriority assigns a tenant's drain priority (higher drains
// first under the "tenant" scheduler).
func (fs *FileSystem) SetTenantPriority(tenant, prio int) {
	if fs.path.prio == nil {
		fs.path.prio = map[int]int{}
	}
	fs.path.prio[tenant] = prio
}

// BufferStats aggregates the burst-buffer tier's activity across the fleet.
type BufferStats struct {
	AbsorbedBytes int64   // bytes absorbed into fleet-node buffers
	SpilledBytes  int64   // bytes that bypassed a full fleet synchronously
	DrainedBytes  int64   // bytes whose background drain has completed
	LastDrainEnd  float64 // when the last completed drain reached the servers
	PeakUsedBytes int64   // high-water mark of any single fleet node's buffer
	// PeakBacklogBytes is the high-water mark of any single node's
	// scheduler backlog (bytes enqueued behind a reordering drain policy;
	// zero under pass-through FIFO).
	PeakBacklogBytes int64
	// LostBytes counts absorbed bytes that never became durable: fleet
	// nodes (drains in flight included) on an ION that died, plus drains
	// that exhausted the storage retry budget. Zero without fault
	// injection.
	LostBytes int64
	// LossEvents counts the loss reports behind LostBytes — one per fault
	// event, aggregated across the fleet nodes it took down.
	LossEvents int
}
