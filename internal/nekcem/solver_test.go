package nekcem

import (
	"testing"

	"repro/internal/ckpt"
	"repro/internal/data"
	"repro/internal/fsys"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/xrand"
)

func testEnv(t *testing.T, ranks int) (*mpi.World, *storage.Core) {
	t.Helper()
	k := sim.NewKernel()
	m := machine.MustNew(k, xrand.New(1), machine.Intrepid(ranks))
	cfg := storage.DefaultGPFS()
	cfg.NoiseProb = 0
	fs, err := storage.NewGPFS(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return mpi.NewWorld(m, mpi.DefaultConfig()), fs
}

func TestMeshArithmetic(t *testing.T) {
	m := Mesh{E: 68 * 1024, N: 15}
	if m.PointsPerElement() != 4096 {
		t.Fatalf("points/element %d", m.PointsPerElement())
	}
	if got := m.GlobalPoints(); got != 68*1024*4096 {
		t.Fatalf("global points %d", got)
	}
	// S = 48n: the paper's 39 GB at 16K ranks.
	s := m.CheckpointBytesFactor(1)
	if s != 48*m.GlobalPoints() {
		t.Fatalf("checkpoint bytes %d", s)
	}
	// With the paper's auxiliary payload, S lands on the published 39 GB.
	sPaper := m.CheckpointBytesFactor(PaperPayloadFactor)
	if gb := float64(sPaper) / 1e9; gb < 38 || gb > 42 {
		t.Fatalf("paper-scale S = %.1f GB, want ~39-41", gb)
	}
	// Element distribution conserves elements.
	total := 0
	for r := 0; r < 1000; r++ {
		total += m.ElemsOnRank(r, 1000)
	}
	if total != m.E {
		t.Fatalf("distributed %d elements, want %d", total, m.E)
	}
}

func TestPaperMeshSizes(t *testing.T) {
	for _, c := range []struct {
		np int
		e  int
	}{{16384, 69632}, {32768, 139264}, {65536, 278528}} {
		m := PaperMesh(c.np)
		if m.N != 15 {
			t.Fatalf("order %d", m.N)
		}
		if m.E < c.e*99/100 || m.E > c.e*101/100 {
			t.Fatalf("np=%d: E=%d, want ~%d", c.np, m.E, c.e)
		}
	}
	// Weak scaling: bytes per rank constant.
	b16 := PaperMesh(16384).CheckpointBytesFactor(1) / 16384
	b64 := PaperMesh(65536).CheckpointBytesFactor(1) / 65536
	if b16 != b64 {
		t.Fatalf("weak scaling violated: %d vs %d bytes/rank", b16, b64)
	}
}

func TestComputeModelCalibration(t *testing.T) {
	cm := DefaultComputeModel()
	// Paper: 0.13 s/step at 8530 points/rank.
	got := cm.StepTime(8530)
	if got < 0.12 || got > 0.15 {
		t.Fatalf("step time %v at paper's calibration point", got)
	}
	if cm.StepTime(100) >= cm.StepTime(10000) {
		t.Fatal("step time not increasing in load")
	}
}

func TestProductionRunContentMode(t *testing.T) {
	w, fs := testEnv(t, 64)
	s := ckpt.DefaultRbIO()
	s.GroupSize = 16
	res, err := Run(w, fs, RunConfig{
		Mesh:            Mesh{E: 128, N: 3},
		Strategy:        s,
		Dir:             "out",
		Steps:           4,
		CheckpointEvery: 2,
		Compute:         ComputeModel{SecPerPoint: 1e-6, Base: 1e-4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Checkpoints) != 2 {
		t.Fatalf("%d checkpoints, want 2", len(res.Checkpoints))
	}
	for _, c := range res.Checkpoints {
		if c.Bytes != 6*8*128*64 {
			t.Fatalf("checkpoint bytes %d", c.Bytes)
		}
		if c.StepTime() <= 0 {
			t.Fatal("non-positive checkpoint step time")
		}
		if c.PerceivedBandwidth() <= c.Bandwidth() {
			t.Fatal("perceived bandwidth should far exceed raw bandwidth for rbIO")
		}
	}
	if res.Wall <= res.Presetup {
		t.Fatal("wall time not beyond presetup")
	}
	// 60 workers + 4 writers in PerRank.
	workers, writers := 0, 0
	for _, pr := range res.PerRank {
		switch pr.Role {
		case ckpt.RoleWorker:
			workers++
		case ckpt.RoleWriter:
			writers++
		}
	}
	if workers != 60 || writers != 4 {
		t.Fatalf("roles %d/%d", workers, writers)
	}
}

func TestProductionRestartRoundTrip(t *testing.T) {
	// Run, checkpoint, then a second world restarts from the checkpoint and
	// the restored state matches a continuous run exactly.
	mesh := Mesh{E: 32, N: 3}
	strat := ckpt.CoIO{NumFiles: 2, Hints: mpiio.DefaultHints()}

	w1, fs := testEnv(t, 16)
	res1, err := Run(w1, fs, RunConfig{
		Mesh: mesh, Strategy: strat, Dir: "out",
		Steps: 3, CheckpointEvery: 3,
		Compute: ComputeModel{SecPerPoint: 1e-7, Base: 1e-5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res1.Checkpoints) != 1 || res1.Checkpoints[0].Step != 3 {
		t.Fatalf("checkpoints %+v", res1.Checkpoints)
	}

	// Restart on a fresh world sharing the same file system state.
	k2 := sim.NewKernel()
	m2 := machine.MustNew(k2, xrand.New(2), machine.Intrepid(16))
	_ = m2
	// The file system is bound to the first machine's kernel; restart within
	// a fresh run against the same fs is not possible across kernels, so
	// restart in a second run on the same world is covered by
	// TestRestartWithinRun below. Here we just confirm the checkpoint files
	// exist and are sized.
	if fs.NumFiles() < 2 {
		t.Fatalf("files %d", fs.NumFiles())
	}
	sz, err := fs.FileSize("out/step000003.f00000.nek")
	if err != nil {
		t.Fatal(err)
	}
	if sz <= 0 {
		t.Fatal("empty checkpoint file")
	}
}

// TestRestartWithinRun checks restart equivalence for every registered
// strategy on gpfs and pvfs, in content mode: a run checkpoints every step
// up to step k, a fresh world on the same kernel and file system restarts
// from it and runs to step n, and the step-n checkpoint, read back through
// the strategy's own Read, is bit-identical to an uninterrupted run's. A
// fresh world has lost multilevel's node-local level, so k and n are
// checkpoints that multilevel's every-4th global level holds too.
func TestRestartWithinRun(t *testing.T) {
	const np, k, n = 64, 4, 8
	mesh := Mesh{E: 128, N: 3}
	compute := ComputeModel{SecPerPoint: 1e-7, Base: 1e-5}
	for _, backend := range []fsys.Backend{"gpfs", "pvfs"} {
		for _, d := range ckpt.Strategies() {
			t.Run(string(backend)+"/"+d.Name, func(t *testing.T) {
				strat := d.New(np)
				run := func(m *machine.Machine, fs fsys.System, cfg RunConfig) {
					t.Helper()
					cfg.Mesh, cfg.Strategy, cfg.Dir, cfg.Compute = mesh, strat, "out", compute
					if _, err := Run(mpi.NewWorld(m, mpi.DefaultConfig()), fs, cfg); err != nil {
						t.Fatal(err)
					}
				}
				// Restarted: checkpoint at k, then a fresh world runs k..n.
				m, fs := mountFresh(t, np, backend)
				run(m, fs, RunConfig{Steps: k, CheckpointEvery: 1})
				run(m, fs, RunConfig{Steps: n - k, CheckpointEvery: 1, RestartStep: k, SkipPresetup: true})
				got := readBack(t, m, fs, strat, n)

				// Uninterrupted: 0..n on its own kernel and file system.
				m, fs = mountFresh(t, np, backend)
				run(m, fs, RunConfig{Steps: n, CheckpointEvery: 1})
				want := readBack(t, m, fs, strat, n)

				for rank := range want {
					g, w := got[rank], want[rank]
					if g.Step != w.Step || g.SimTime != w.SimTime || len(g.Fields) != len(w.Fields) {
						t.Fatalf("rank %d: step %d at %g with %d fields, uninterrupted step %d at %g with %d",
							rank, g.Step, g.SimTime, len(g.Fields), w.Step, w.SimTime, len(w.Fields))
					}
					for fi := range w.Fields {
						if !g.Fields[fi].Data.Real() || !data.Equal(g.Fields[fi].Data, w.Fields[fi].Data) {
							t.Fatalf("rank %d field %s differs from the uninterrupted run", rank, w.Fields[fi].Name)
						}
					}
				}
			})
		}
	}
}

// mountFresh returns a quiet np-rank machine on a new kernel with backend
// mounted on it.
func mountFresh(t *testing.T, np int, backend fsys.Backend) (*machine.Machine, fsys.System) {
	t.Helper()
	m := machine.MustNew(sim.NewKernel(), xrand.New(1), machine.Intrepid(np))
	fs, err := fsys.Mount(backend, m, fsys.MountOptions{Quiet: true})
	if err != nil {
		t.Fatal(err)
	}
	return m, fs
}

// readBack reads every rank's chunk of the step checkpoint through strat's
// own Plan and Read, in a fresh world on m, indexed by world rank.
func readBack(t *testing.T, m *machine.Machine, fs fsys.System, strat ckpt.Strategy, step int64) []*ckpt.Checkpoint {
	t.Helper()
	w := mpi.NewWorld(m, mpi.DefaultConfig())
	out := make([]*ckpt.Checkpoint, w.Size())
	env := &ckpt.Env{FS: fs, Dir: "out"}
	err := w.Run(func(c *mpi.Comm, r *mpi.Rank) {
		pl, err := strat.Plan(c, r)
		if err == nil {
			out[r.ID()], err = pl.Read(env, r, step)
		}
		if err != nil {
			t.Errorf("rank %d: %v", r.ID(), err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if t.Failed() {
		t.FailNow()
	}
	return out
}

func TestPresetupScalesWithMesh(t *testing.T) {
	presetup := func(e int) float64 {
		w, fs := testEnv(t, 64)
		res, err := Run(w, fs, RunConfig{
			Mesh: Mesh{E: e, N: 3}, Dir: "out",
			Steps: 0, Synthetic: true,
			Compute: DefaultComputeModel(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Presetup
	}
	small, big := presetup(1024), presetup(8192)
	if big <= small {
		t.Fatalf("presetup not scaling with mesh: %v vs %v", small, big)
	}
}

func TestSyntheticRunNoMemoryBlowup(t *testing.T) {
	// A synthetic 1024-rank run with the paper's per-rank load must work
	// without allocating field storage.
	w, fs := testEnv(t, 1024)
	s := ckpt.DefaultRbIO()
	res, err := Run(w, fs, RunConfig{
		Mesh: PaperMesh(1024), Strategy: s, Dir: "out",
		Steps: 1, CheckpointEvery: 1, Synthetic: true, SkipPresetup: true,
		Compute: DefaultComputeModel(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Checkpoints) != 1 {
		t.Fatal("missing checkpoint")
	}
	wantBytes := PaperMesh(1024).CheckpointBytesFactor(1)
	got := res.Checkpoints[0].Bytes
	if got < wantBytes*99/100 || got > wantBytes*101/100 {
		t.Fatalf("synthetic checkpoint carried %d bytes, want ~%d", got, wantBytes)
	}
}

func TestPayloadFactorScalesChunk(t *testing.T) {
	m := Mesh{E: 8, N: 3}
	base := NewSyntheticState(m, 0, 4)
	scaled := NewSyntheticState(m, 0, 4)
	scaled.PayloadFactor = PaperPayloadFactor
	if scaled.ChunkBytes() != 3*base.ChunkBytes() {
		t.Fatalf("factor-3 chunk %d vs base %d", scaled.ChunkBytes(), base.ChunkBytes())
	}
	cp := scaled.Checkpoint()
	if cp.TotalBytes() != NumFields*scaled.ChunkBytes() {
		t.Fatalf("checkpoint bytes %d", cp.TotalBytes())
	}
}

func TestContentPayloadFactorRoundTrips(t *testing.T) {
	// In content mode the factor replicates the field values; Restore must
	// still recover the leading copy exactly.
	m := Mesh{E: 4, N: 3}
	s := NewState(m, 1, 2)
	s.PayloadFactor = 3
	s.InitWaveguide()
	s.Advance(1e-3)
	cp := s.Checkpoint()

	s2 := NewState(m, 1, 2)
	s2.PayloadFactor = 3
	if err := s2.Restore(cp); err != nil {
		t.Fatal(err)
	}
	if s2.Energy() != s.Energy() {
		t.Fatalf("energy %v != %v after factor-3 round trip", s2.Energy(), s.Energy())
	}
}

func TestCheckpointAggBandwidthConsistency(t *testing.T) {
	// Bandwidth() must equal Bytes / StepTime by definition.
	a := &CkptAgg{Step: 1, Start: 10, MaxEnd: 14, MaxDurable: 15, Bytes: 50e9}
	if got, want := a.StepTime(), 5.0; got != want {
		t.Fatalf("step time %v", got)
	}
	if got := a.Bandwidth(); got != 10e9 {
		t.Fatalf("bandwidth %v", got)
	}
	empty := &CkptAgg{Start: 5, MaxEnd: 5}
	if empty.Bandwidth() != 0 {
		t.Fatal("zero-duration bandwidth not zero")
	}
	if (&CkptAgg{}).PerceivedBandwidth() != 0 {
		t.Fatal("perceived bandwidth without workers not zero")
	}
}
