package bbuf

import (
	"testing"

	"repro/internal/data"
	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// faultRig builds a machine + burst-buffer file system with a fault schedule
// armed and runs body as a single process.
func faultRig(t *testing.T, mod func(*Config), sched fault.Schedule, body func(p *sim.Proc, fs *FileSystem)) {
	t.Helper()
	k := sim.NewKernel()
	m := machine.MustNew(k, xrand.New(1), machine.Intrepid(256))
	cfg := DefaultConfig()
	cfg.NoiseProb = 0
	if mod != nil {
		mod(&cfg)
	}
	fs := mustNew(t, m, cfg)
	fs.EnableFaults(fault.NewInjector(k, sched), xrand.New(9))
	k.Go("test", func(p *sim.Proc) { body(p, fs) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestIONDeathLosesBufferAndSpills: an ION death writes off its undrained
// buffer as lost, degrades its pset to the synchronous spill path (which
// still succeeds), and a later restore resumes absorption — all without an
// error or a hang on the application side.
func TestIONDeathLosesBufferAndSpills(t *testing.T) {
	const n = 4 << 20
	sched := fault.Schedule{
		{Time: 0.5, Class: fault.ION, Index: 0, Kind: fault.Fail},
		{Time: 2.0, Class: fault.ION, Index: 0, Kind: fault.Restore},
	}
	// A slow drain keeps the absorbed bytes in the buffer past the death.
	faultRig(t, func(c *Config) { c.DrainBW = 100e3 }, sched, func(p *sim.Proc, fs *FileSystem) {
		h, err := fs.Create(p, 0, "f")
		if err != nil {
			t.Fatal(err)
		}
		// Rank 0 lives in pset 0: its writes buffer on ION 0.
		if err := h.WriteAt(p, 0, 0, data.Synthetic(n)); err != nil {
			t.Fatal(err)
		}
		if got := fs.Buffer().AbsorbedBytes; got != n {
			t.Fatalf("absorbed %d, want %d", got, n)
		}
		p.SleepUntil(1.0) // past the death, before the restore
		st := fs.Buffer()
		if st.LostBytes == 0 {
			t.Error("ION death lost no buffered bytes")
		}
		if st.LostBytes+st.DrainedBytes < n-n/100 {
			t.Errorf("accounting leak: lost %d + drained %d should cover the %d absorbed",
				st.LostBytes, st.DrainedBytes, n)
		}
		if fs.path.used[0] != 0 {
			t.Errorf("dead ION still holds %d buffered bytes", fs.path.used[0])
		}
		// While the ION is down, the pset's writes spill synchronously and
		// still land.
		if err := h.WriteAt(p, 0, n, data.Synthetic(n)); err != nil {
			t.Fatalf("spill write during ION outage: %v", err)
		}
		if fs.Buffer().SpilledBytes < n {
			t.Errorf("outage write did not spill: spilled=%d", fs.Buffer().SpilledBytes)
		}
		p.SleepUntil(3.0) // past the restore
		before := fs.Buffer().AbsorbedBytes
		if err := h.WriteAt(p, 0, 2*n, data.Synthetic(n)); err != nil {
			t.Fatal(err)
		}
		if fs.Buffer().AbsorbedBytes != before+n {
			t.Error("restored ION did not resume absorbing")
		}
		if err := h.Close(p, 0); err != nil {
			t.Fatalf("close after ION outage: %v", err)
		}
		if fs.path.used[0] < 0 {
			t.Errorf("buffer accounting went negative: %d", fs.path.used[0])
		}
	})
}

// TestIONDeathEpochVoidsInflightDrain pins the double-free guard: a drain
// completion that lands after its ION died must not decrement the (already
// zeroed) buffer or count its bytes drained.
func TestIONDeathEpochVoidsInflightDrain(t *testing.T) {
	const n = 1 << 20
	sched := fault.Schedule{{Time: 0.5, Class: fault.ION, Index: 0, Kind: fault.Fail}}
	faultRig(t, func(c *Config) { c.DrainBW = 100e3 }, sched, func(p *sim.Proc, fs *FileSystem) {
		h, err := fs.Create(p, 0, "f")
		if err != nil {
			t.Fatal(err)
		}
		if err := h.WriteAt(p, 0, 0, data.Synthetic(n)); err != nil {
			t.Fatal(err)
		}
		// Sleep far past the in-flight drain's original completion time.
		p.SleepUntil(60)
		st := fs.Buffer()
		if st.LostBytes != n {
			t.Errorf("lost %d, want the whole %d buffer", st.LostBytes, n)
		}
		if st.DrainedBytes != 0 {
			t.Errorf("voided drain still counted %d bytes drained", st.DrainedBytes)
		}
		if fs.path.used[0] != 0 {
			t.Errorf("voided drain corrupted the buffer accounting: used=%d", fs.path.used[0])
		}
	})
}

// TestOnLostCallbackReportsBufferLoss: the recovery layer's loss hook fires
// in kernel time order when an ION death writes off its undrained buffer,
// with the lost byte count and the loss instant.
func TestOnLostCallbackReportsBufferLoss(t *testing.T) {
	const n = 4 << 20
	sched := fault.Schedule{
		{Time: 0.5, Class: fault.ION, Index: 0, Kind: fault.Fail},
		{Time: 2.0, Class: fault.ION, Index: 0, Kind: fault.Restore},
	}
	type loss struct {
		ion   int
		bytes int64
		t     float64
	}
	var losses []loss
	faultRig(t, func(c *Config) { c.DrainBW = 100e3 }, sched, func(p *sim.Proc, fs *FileSystem) {
		fs.OnLost(func(ion int, bytes int64, at float64) {
			losses = append(losses, loss{ion, bytes, at})
		})
		h, err := fs.Create(p, 0, "f")
		if err != nil {
			t.Fatal(err)
		}
		if err := h.WriteAt(p, 0, 0, data.Synthetic(n)); err != nil {
			t.Fatal(err)
		}
		if len(losses) != 0 {
			t.Fatalf("loss reported before the ION died: %+v", losses)
		}
		p.SleepUntil(1.0) // past the death
		if len(losses) == 0 {
			t.Fatal("ION death lost buffered bytes but the hook never fired")
		}
		got := losses[0]
		if got.ion != 0 {
			t.Errorf("loss attributed to ION %d, want 0", got.ion)
		}
		if got.bytes <= 0 || got.bytes > n {
			t.Errorf("lost %d bytes, want in (0, %d]", got.bytes, n)
		}
		if got.t != 0.5 {
			t.Errorf("loss reported at t=%g, want the death instant 0.5", got.t)
		}
		var total int64
		for _, l := range losses {
			total += l.bytes
		}
		if total != fs.Buffer().LostBytes {
			t.Errorf("hook reported %d lost bytes, counters say %d", total, fs.Buffer().LostBytes)
		}
	})
}
