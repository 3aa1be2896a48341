package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/bench"
	"repro/internal/bbuf"
	"repro/internal/ckpt"
	"repro/internal/data"
	"repro/internal/fsys"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/nekcem"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// probe times one layer in isolation through its public API. run builds its
// fixture, times n operations and returns the cost per operation in the
// metric's unit; the reported value is the median over batches.
type probe struct {
	name string
	n    int
	run  func(n int) (float64, error)
}

// probes lists the layer probes. rbioNP sizes the sharded/serial set-up
// ratio; smoke shrinks every fixture so the test suite stays fast.
func probes(rbioNP int, smoke bool) []probe {
	stepNP := 1024
	if smoke {
		stepNP = 256
	}
	ps := []probe{
		{"sim.event_ns", 200000, eventChurn(false)},
		{"sim.event_allocs", 200000, eventChurn(true)},
		{"sim.handoff_ns", 50000, handoff},
		{"sim.resource_ns", 50000, resourceQueue},
		{"machine.transfer_ns", 100000, transfer},
		{"mpi.p2p_ns", 20000, p2p},
		{"mpi.allgather_ns", 40, allgather},
		{"mpiio.collective_write_ns", 10, collectiveWrite},
		{"gpfs.commit_ns", 2000, commit(mountBackend("gpfs"))},
		{"pvfs.commit_ns", 2000, commit(mountBackend("pvfs"))},
		{"bbuf.commit_ns", 2000, commit(mountAbsorbing)},
	}
	for _, s := range []string{"1pfpp", "coio", "rbio", "async"} {
		ps = append(ps, probe{"ckpt.step_ms." + s, 1, ckptStep(s, stepNP)})
	}
	ps = append(ps, probe{"sim.shard_setup_ratio", 1, shardSetupRatio(rbioNP)})
	if smoke {
		for i := range ps {
			ps[i].n = (ps[i].n + 19) / 20
		}
	}
	return ps
}

// runProbes measures every probe, batches times each.
func runProbes(ps []probe, batches int) (map[string]float64, error) {
	out := map[string]float64{}
	for _, p := range ps {
		vals := make([]float64, 0, batches)
		for b := 0; b < batches; b++ {
			v, err := p.run(p.n)
			if err != nil {
				return nil, fmt.Errorf("probe %s: %w", p.name, err)
			}
			vals = append(vals, v)
		}
		_, med, _ := bench.Quartiles(vals)
		out[p.name] = med
	}
	return out, nil
}

func perOp(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) }

func newMachine(np int) (*sim.Kernel, *machine.Machine, error) {
	d, err := machine.Lookup("")
	if err != nil {
		return nil, nil, err
	}
	k := sim.NewKernel()
	m, err := machine.New(k, xrand.New(1), d.Config(np))
	return k, m, err
}

// churnHook is a pooled self-rescheduling event; xorshift delays spread the
// standing population over many calendar buckets.
type churnHook struct {
	k    *sim.Kernel
	left *int
	x    uint64
}

func (h *churnHook) Fire() {
	if *h.left <= 0 {
		return
	}
	*h.left--
	h.x ^= h.x << 13
	h.x ^= h.x >> 7
	h.x ^= h.x << 17
	h.k.AfterHook(1e-7+float64(h.x%1024)*1e-8, h)
}

// eventChurn dispatches n events through a calendar holding 1024 standing
// pooled events, reporting ns per event or, with allocs, heap allocations
// per event.
func eventChurn(allocs bool) func(n int) (float64, error) {
	return func(n int) (float64, error) {
		k := sim.NewKernel()
		left := n
		for i := 0; i < 1024; i++ {
			k.AfterHook(float64(i+1)*1e-7, &churnHook{k: k, left: &left, x: uint64(i)*2654435761 + 1})
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		err := k.Run()
		d := time.Since(t0)
		runtime.ReadMemStats(&after)
		if allocs {
			return float64(after.Mallocs-before.Mallocs) / float64(n), err
		}
		return perOp(d, n), err
	}
}

// handoff parks one process and unparks it from another, n times.
func handoff(n int) (float64, error) {
	k := sim.NewKernel()
	var sleeper *sim.Proc
	sleeper = k.Go("sleeper", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Park()
		}
	})
	k.Go("waker", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			sleeper.Unpark()
			p.Sleep(1e-6)
		}
	})
	t0 := time.Now()
	err := k.Run()
	return perOp(time.Since(t0), n), err
}

// resourceQueue cycles 64 contenders through one unit, n acquisitions.
func resourceQueue(n int) (float64, error) {
	k := sim.NewKernel()
	res := sim.NewResource(1)
	const contenders = 64
	per := n/contenders + 1
	for i := 0; i < contenders; i++ {
		k.Go(fmt.Sprintf("c%d", i), func(p *sim.Proc) {
			for j := 0; j < per; j++ {
				res.Acquire(p)
				p.Sleep(1e-8)
				res.Release()
			}
		})
	}
	t0 := time.Now()
	err := k.Run()
	return perOp(time.Since(t0), per*contenders), err
}

// transfer charges 1 MiB torus transfers on a 4096-rank partition.
func transfer(n int) (float64, error) {
	_, m, err := newMachine(4096)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		m.Net.Transfer(float64(i), i%1024, (i*31)%1024, 1<<20)
	}
	return perOp(time.Since(t0), n), nil
}

// worldRun times one MPI world of np ranks running body; ops is what the
// cost is divided by.
func worldRun(np, ops int, body func(c *mpi.Comm, r *mpi.Rank)) (float64, error) {
	_, m, err := newMachine(np)
	if err != nil {
		return 0, err
	}
	w := mpi.NewWorld(m, mpi.DefaultConfig())
	t0 := time.Now()
	err = w.Run(body)
	return perOp(time.Since(t0), ops), err
}

// p2p sends n 4 KiB messages from rank 0 to rank 1.
func p2p(n int) (float64, error) {
	return worldRun(64, n, func(c *mpi.Comm, r *mpi.Rank) {
		switch r.ID() {
		case 0:
			for i := 0; i < n; i++ {
				c.Send(r, 1, 1, data.Synthetic(4096))
			}
		case 1:
			for i := 0; i < n; i++ {
				c.Recv(r, 0, 1)
			}
		}
	})
}

// allgather runs n 256-rank allgathers.
func allgather(n int) (float64, error) {
	return worldRun(256, n, func(c *mpi.Comm, r *mpi.Rank) {
		for i := 0; i < n; i++ {
			c.AllgatherInt64(r, int64(r.ID()))
		}
	})
}

// collectiveWrite runs n two-phase MPI-IO collective writes of 64 KiB per
// rank on 256 ranks over gpfs.
func collectiveWrite(n int) (float64, error) {
	var ferr error
	_, m, err := newMachine(256)
	if err != nil {
		return 0, err
	}
	fs, err := fsys.Mount("gpfs", m, fsys.MountOptions{})
	if err != nil {
		return 0, err
	}
	w := mpi.NewWorld(m, mpi.DefaultConfig())
	t0 := time.Now()
	err = w.Run(func(c *mpi.Comm, r *mpi.Rank) {
		f, err := mpiio.Open(c, r, fs, "cw", true, mpiio.DefaultHints())
		if err != nil {
			ferr = err
			return
		}
		for i := 0; i < n; i++ {
			off := int64(i)*256*65536 + int64(c.Rank(r))*65536
			if err := f.WriteAtAll(r, off, data.Synthetic(65536)); err != nil {
				ferr = err
				return
			}
		}
		if err := f.Close(r); err != nil {
			ferr = err
		}
	})
	d := time.Since(t0)
	if err == nil {
		err = ferr
	}
	return perOp(d, n), err
}

func mountBackend(name fsys.Backend) func(m *machine.Machine) (fsys.System, error) {
	return func(m *machine.Machine) (fsys.System, error) {
		return fsys.Mount(name, m, fsys.MountOptions{})
	}
}

// mountAbsorbing mounts bbuf with an unbounded buffer, so every write stays
// on the absorption path instead of spilling once the drain falls behind.
func mountAbsorbing(m *machine.Machine) (fsys.System, error) {
	cfg := bbuf.DefaultConfig()
	cfg.BufferPerION = 1 << 62
	return bbuf.New(m, cfg)
}

// commit writes n sequential 4 MiB blocks from one rank of a 256-rank
// partition through the backend's full commit path.
func commit(mount func(m *machine.Machine) (fsys.System, error)) func(n int) (float64, error) {
	return func(n int) (float64, error) {
		k, m, err := newMachine(256)
		if err != nil {
			return 0, err
		}
		fs, err := mount(m)
		if err != nil {
			return 0, err
		}
		var werr error
		k.Go("writer", func(p *sim.Proc) {
			h, err := fs.Create(p, 0, "probe")
			if err != nil {
				werr = err
				return
			}
			for i := 0; i < n; i++ {
				if err := h.WriteAt(p, 0, int64(i)*4<<20, data.Synthetic(4<<20)); err != nil {
					werr = err
					return
				}
			}
		})
		t0 := time.Now()
		err = k.Run()
		d := time.Since(t0)
		if err == nil {
			err = werr
		}
		return perOp(d, n), err
	}
}

// ckptStep times one whole simulated checkpoint step of a registry strategy
// at np ranks on gpfs, construction included, in milliseconds.
func ckptStep(strategy string, np int) func(int) (float64, error) {
	return func(int) (float64, error) {
		t0 := time.Now()
		_, m, err := newMachine(np)
		if err != nil {
			return 0, err
		}
		fs, err := fsys.Mount("gpfs", m, fsys.MountOptions{})
		if err != nil {
			return 0, err
		}
		_, err = nekcem.Run(mpi.NewWorld(m, mpi.DefaultConfig()), fs, nekcem.RunConfig{
			Mesh: nekcem.PaperMesh(np), Strategy: ckpt.MustNew(strategy, np), Dir: "ckpt",
			Steps: 1, CheckpointEvery: 1, Synthetic: true, SkipPresetup: true,
			PayloadFactor: nekcem.PaperPayloadFactor, Compute: nekcem.DefaultComputeModel(),
		})
		return float64(time.Since(t0).Nanoseconds()) / 1e6, err
	}
}

// shardSetupRatio is the partitioned kernel's zero-step set-up wall over the
// serial kernel's at np ranks.
func shardSetupRatio(np int) func(int) (float64, error) {
	return func(int) (float64, error) {
		serial, err := setup(np, "gpfs", 1, 1)
		if err != nil {
			return 0, err
		}
		sharded, err := setup(np, "gpfs", 2, 1)
		if err != nil {
			return 0, err
		}
		return sharded.Seconds() / serial.Seconds(), nil
	}
}
