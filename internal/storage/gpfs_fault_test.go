package storage_test

import (
	"errors"
	"testing"

	"repro/internal/data"
	"repro/internal/fault"
	"repro/internal/fsys"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/xrand"
)

// faultRig builds a small machine + file system with a fault schedule armed
// and runs body as a single process.
func faultRig(t *testing.T, mod func(*storage.GPFSConfig), sched fault.Schedule, jitterSeed uint64,
	body func(p *sim.Proc, fs *storage.Core)) {
	t.Helper()
	k := sim.NewKernel()
	m := machine.MustNew(k, xrand.New(1), machine.Intrepid(256))
	cfg := storage.DefaultGPFS()
	cfg.NoiseProb = 0
	if mod != nil {
		mod(&cfg)
	}
	fs, err := storage.NewGPFS(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fs.EnableFaults(fault.NewInjector(k, sched), xrand.New(jitterSeed))
	k.Go("test", func(p *sim.Proc) { body(p, fs) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestServerDeathFailsOverToSurvivors: with one of four servers dead from
// the start, a write striped across all of them completes without error by
// redirecting the dead server's blocks, and the data reads back.
func TestServerDeathFailsOverToSurvivors(t *testing.T) {
	sched := fault.Schedule{{Time: 1e-9, Class: fault.Server, Index: 0, Kind: fault.Fail}}
	faultRig(t, func(c *storage.GPFSConfig) { c.NumServers = 4; c.BlockSize = 1 << 20 }, sched, 5,
		func(p *sim.Proc, fs *storage.Core) {
			h, err := fs.Create(p, 0, "f")
			if err != nil {
				t.Fatal(err)
			}
			if err := h.WriteAt(p, 0, 0, data.Synthetic(16<<20)); err != nil {
				t.Fatalf("write with a surviving stripe should succeed: %v", err)
			}
			p.AwaitNow(h.StartSync(p, 0))
			if err := h.Close(p, 0); err != nil {
				t.Fatalf("close: %v", err)
			}
			if fs.Stats.Failovers == 0 {
				t.Error("no commits failed over to a surviving server")
			}
			if fs.Stats.Retries == 0 || fs.Stats.FaultDelay <= 0 {
				t.Errorf("failover should cost detection time: retries=%d delay=%g",
					fs.Stats.Retries, fs.Stats.FaultDelay)
			}
			if fs.Stats.CommitErrors != 0 {
				t.Errorf("no commit should have failed, got %d", fs.Stats.CommitErrors)
			}
			h2, err := fs.Open(p, 0, "f")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := h2.ReadAt(p, 0, 0, 16<<20); err != nil {
				t.Fatalf("read after failover: %v", err)
			}
		})
}

// TestAllServersDownSurfacesTypedError: when every server is dead, the
// commit path must not panic and must not silently charge time — the write
// surfaces a typed ErrServerDown (at Sync/Close for write-behind paths), and
// reads fail the same way.
func TestAllServersDownSurfacesTypedError(t *testing.T) {
	var sched fault.Schedule
	for i := 0; i < 4; i++ {
		sched = append(sched, fault.Event{Time: 1e-9, Class: fault.Server, Index: i, Kind: fault.Fail})
	}
	faultRig(t, func(c *storage.GPFSConfig) { c.NumServers = 4 }, sched, 5,
		func(p *sim.Proc, fs *storage.Core) {
			h, err := fs.Create(p, 0, "f")
			if err != nil {
				t.Fatal(err)
			}
			werr := h.WriteAt(p, 0, 0, data.Synthetic(4<<20))
			if werr == nil {
				p.AwaitNow(h.StartSync(p, 0))
				werr = h.Err()
			}
			cerr := h.Close(p, 0)
			if werr == nil {
				werr = cerr
			}
			if werr == nil {
				t.Fatal("write to a fully dead stripe reported no error")
			}
			if !errors.Is(werr, storage.ErrServerDown) {
				t.Errorf("want ErrServerDown, got %v", werr)
			}
			if !fsys.Unavailable(werr) {
				t.Errorf("error not classified unavailable: %v", werr)
			}
			if fs.Stats.CommitErrors == 0 {
				t.Error("commit errors not counted")
			}

			h2, err := fs.Open(p, 0, "f")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := h2.ReadAt(p, 0, 0, 1<<20); err == nil || !fsys.Unavailable(err) {
				t.Errorf("read from dead servers: want unavailable error, got %v", err)
			}
		})
}

// TestRetryJitterReproducible: the backoff jitter comes from a dedicated
// seeded stream, so the same schedule and seed give bit-identical timing and
// fault accounting, while a different seed moves them.
func TestRetryJitterReproducible(t *testing.T) {
	// Both servers down at the start, server 0 back after 2 s: with no
	// failover target the client rides the jittered backoff until server 0
	// answers again, as home or as failover target.
	sched := fault.Schedule{
		{Time: 1e-9, Class: fault.Server, Index: 0, Kind: fault.Fail},
		{Time: 1e-9, Class: fault.Server, Index: 1, Kind: fault.Fail},
		{Time: 2, Class: fault.Server, Index: 0, Kind: fault.Restore},
		{Time: 5, Class: fault.Server, Index: 1, Kind: fault.Restore},
	}
	run := func(seed uint64) (delay, end float64, retries int) {
		faultRig(t, func(c *storage.GPFSConfig) { c.NumServers = 2 }, sched, seed,
			func(p *sim.Proc, fs *storage.Core) {
				h, err := fs.Create(p, 0, "f")
				if err != nil {
					t.Fatal(err)
				}
				if err := h.WriteAt(p, 0, 0, data.Synthetic(8<<20)); err != nil {
					t.Fatal(err)
				}
				p.AwaitNow(h.StartSync(p, 0))
				if err := h.Close(p, 0); err != nil {
					t.Fatal(err)
				}
				delay, retries = fs.Stats.FaultDelay, fs.Stats.Retries
				end = p.Now()
			})
		return
	}
	d1, e1, r1 := run(11)
	d2, e2, r2 := run(11)
	if d1 != d2 || e1 != e2 || r1 != r2 {
		t.Errorf("same seed diverged: delay %g vs %g, end %g vs %g, retries %d vs %d", d1, d2, e1, e2, r1, r2)
	}
	if d1 <= 0 || r1 == 0 {
		t.Fatalf("outage exercised no retries: delay=%g retries=%d", d1, r1)
	}
	d3, e3, _ := run(12)
	if d1 == d3 && e1 == e3 {
		t.Error("different jitter seed produced identical timing")
	}
}
