package bbuf

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/data"
	"repro/internal/fsys"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// mustNew is New, failing the test on error.
func mustNew(t *testing.T, m *machine.Machine, cfg Config) *FileSystem {
	t.Helper()
	fs, err := New(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func rig(t *testing.T, ranks int, mod func(*Config), body func(p *sim.Proc, fs *FileSystem)) {
	t.Helper()
	rigTraced(t, nil, ranks, mod, body)
}

// rigTraced is rig with rec attached before the mount; nil traces nothing.
func rigTraced(t *testing.T, rec *trace.Recorder, ranks int, mod func(*Config), body func(p *sim.Proc, fs *FileSystem)) {
	t.Helper()
	k := sim.NewKernel()
	k.SetRecorder(rec)
	m := machine.MustNew(k, xrand.New(1), machine.Intrepid(ranks))
	cfg := DefaultConfig()
	cfg.NoiseProb = 0
	if mod != nil {
		mod(&cfg)
	}
	fs := mustNew(t, m, cfg)
	k.Go("test", func(p *sim.Proc) { body(p, fs) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCreateWriteReadClose(t *testing.T) {
	rig(t, 256, nil, func(p *sim.Proc, fs *FileSystem) {
		h, err := fs.Create(p, 0, "ck/f0")
		if err != nil {
			t.Fatal(err)
		}
		payload := bytes.Repeat([]byte{3, 1, 4}, 4000)
		if err := h.WriteAt(p, 0, 0, data.FromBytes(payload)); err != nil {
			t.Fatal(err)
		}
		got, err := h.ReadAt(p, 0, 0, int64(len(payload)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), payload) {
			t.Fatal("corrupted round trip")
		}
		if err := h.Close(p, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.Open(p, 0, "missing"); !errors.Is(err, fsys.ErrNotExist) {
			t.Fatalf("want ErrNotExist, got %v", err)
		}
		if _, err := fs.Create(p, 0, "ck/f0"); !errors.Is(err, fsys.ErrExists) {
			t.Fatalf("want ErrExists, got %v", err)
		}
		if err := h.Close(p, 0); !errors.Is(err, fsys.ErrClosed) {
			t.Fatalf("double close: want ErrClosed, got %v", err)
		}
	})
}

func TestAbsorptionFasterThanSynchronous(t *testing.T) {
	// The backend's reason to exist: the same write on the same shared
	// servers blocks for far less time when a buffer absorbs it. Compare
	// against the synchronous PVFS model with identical server parameters.
	const n = 64 << 20
	var bbWrite float64
	rig(t, 256, nil, func(p *sim.Proc, fs *FileSystem) {
		h, _ := fs.Create(p, 0, "f")
		t0 := p.Now()
		h.WriteAt(p, 0, 0, data.Synthetic(n))
		bbWrite = p.Now() - t0
		h.Close(p, 0)
	})

	k := sim.NewKernel()
	m := machine.MustNew(k, xrand.New(1), machine.Intrepid(256))
	pcfg := storage.DefaultPVFS()
	pcfg.NoiseProb = 0
	pfs, err := storage.NewPVFS(m, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	var syncWrite float64
	k.Go("w", func(p *sim.Proc) {
		h, _ := pfs.Create(p, 0, "f")
		t0 := p.Now()
		h.WriteAt(p, 0, 0, data.Synthetic(n))
		syncWrite = p.Now() - t0
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if bbWrite*2 > syncWrite {
		t.Fatalf("absorption (%v s) not clearly faster than synchronous commit (%v s)", bbWrite, syncWrite)
	}
}

func TestBackgroundDrainReachesServersAndFreesBuffer(t *testing.T) {
	const n = 32 << 20
	var writeEnd float64
	var st BufferStats
	var buffered int64
	rec := trace.NewRecorder()
	rigTraced(t, rec, 256, nil, func(p *sim.Proc, fs *FileSystem) {
		h, _ := fs.Create(p, 0, "f")
		h.WriteAt(p, 0, 0, data.Synthetic(n))
		writeEnd = p.Now()
		h.Close(p, 0)
		// Wait out the background drain before inspecting.
		p.Sleep(300)
		st = fs.Buffer()
		buffered = fs.BufferedBytes()
	})
	var serverBytes int64
	for _, s := range rec.Snapshot("", 0).Spans {
		if s.Name == "server.write" {
			serverBytes += s.Bytes
		}
	}
	if st.AbsorbedBytes != n || st.SpilledBytes != 0 {
		t.Fatalf("absorbed %d spilled %d, want %d/0", st.AbsorbedBytes, st.SpilledBytes, int64(n))
	}
	if st.DrainedBytes != n || buffered != 0 {
		t.Fatalf("drained %d, still buffered %d", st.DrainedBytes, buffered)
	}
	if st.LastDrainEnd <= writeEnd {
		t.Fatalf("drain (%v) finished before the write returned (%v) — not a background drain", st.LastDrainEnd, writeEnd)
	}
	// The revolution model charges the representative server with the
	// per-server share of a fully parallel drain, so the pipes record
	// n/NumServers, not n.
	if perServer := int64(n / DefaultConfig().NumServers); serverBytes < perServer {
		t.Fatalf("shared servers saw only %d bytes of the drain (want >= %d)", serverBytes, perServer)
	}
}

func TestFullBufferSpillsToSynchronous(t *testing.T) {
	// A capacity smaller than the write forces the spill path; the write
	// then blocks for the commit. Slow, few servers make the synchronous
	// share large enough for a lone writer to feel it.
	const n = 16 << 20
	slow := func(c *Config) { c.NumServers = 4; c.ServerBW = 10e6 }
	var spillElapsed, absorbElapsed float64
	var st BufferStats
	rig(t, 256, func(c *Config) { slow(c); c.BufferPerION = n / 2 }, func(p *sim.Proc, fs *FileSystem) {
		h, _ := fs.Create(p, 0, "f")
		t0 := p.Now()
		h.WriteAt(p, 0, 0, data.Synthetic(n))
		spillElapsed = p.Now() - t0
		st = fs.Buffer()
	})
	rig(t, 256, slow, func(p *sim.Proc, fs *FileSystem) {
		h, _ := fs.Create(p, 0, "f")
		t0 := p.Now()
		h.WriteAt(p, 0, 0, data.Synthetic(n))
		absorbElapsed = p.Now() - t0
	})
	if st.SpilledBytes != n || st.AbsorbedBytes != 0 {
		t.Fatalf("spilled %d absorbed %d, want %d/0", st.SpilledBytes, st.AbsorbedBytes, int64(n))
	}
	if spillElapsed <= absorbElapsed*2 {
		t.Fatalf("spill (%v s) not clearly slower than absorption (%v s)", spillElapsed, absorbElapsed)
	}
}

func TestSyncAndCloseDoNotWaitForDrain(t *testing.T) {
	// Absorption is the durability boundary: Sync and Close must return
	// while the background drain is still in flight.
	rig(t, 256, nil, func(p *sim.Proc, fs *FileSystem) {
		h, _ := fs.Create(p, 0, "f")
		h.WriteAt(p, 0, 0, data.Synthetic(128<<20))
		t0 := p.Now()
		p.AwaitNow(h.StartSync(p, 0))
		if p.Now() != t0 {
			t.Error("Sync waited on the background drain")
		}
		if err := h.Close(p, 0); err != nil {
			t.Error(err)
		}
		if fs.BufferedBytes() == 0 {
			t.Error("close drained the buffer synchronously")
		}
	})
}

func TestDeterministicPerSeed(t *testing.T) {
	run := func(seed uint64) (float64, float64) {
		k := sim.NewKernel()
		m := machine.MustNew(k, xrand.New(seed), machine.Intrepid(256))
		cfg := DefaultConfig()
		cfg.NoiseProb = 0.2 // high so the drain path reliably draws spikes
		fs := mustNew(t, m, cfg)
		var end float64
		k.Go("w", func(p *sim.Proc) {
			h, _ := fs.Create(p, 0, "f")
			for i := 0; i < 20; i++ {
				h.WriteAt(p, 0, int64(i)*8<<20, data.Synthetic(8<<20))
			}
			h.Close(p, 0)
			p.Sleep(300)
			end = p.Now()
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return end, fs.Buffer().LastDrainEnd
	}
	e1, d1 := run(7)
	e2, d2 := run(7)
	e3, d3 := run(8)
	if e1 != e2 || d1 != d2 {
		t.Fatalf("same seed diverged: %v/%v vs %v/%v", e1, d1, e2, d2)
	}
	if d1 == d3 && e1 == e3 {
		t.Fatal("different seeds produced identical drain timing")
	}
}
