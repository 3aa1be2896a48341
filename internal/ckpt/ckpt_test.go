package ckpt

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/cemfmt"
	"repro/internal/data"
	"repro/internal/iolog"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/xrand"
)

// fieldNames are the six NekCEM electromagnetic field components.
var fieldNames = []string{"Ex", "Ey", "Ez", "Hx", "Hy", "Hz"}

// makeCheckpoint builds a rank's checkpoint with deterministic recognizable
// content: byte j of field f on rank r is a function of (r, f, j).
func makeCheckpoint(rank int, step int64, chunk int) *Checkpoint {
	cp := &Checkpoint{Step: step, SimTime: float64(step) * 0.1}
	for fi, name := range fieldNames {
		b := make([]byte, chunk)
		for j := range b {
			b[j] = byte(rank*31 + fi*7 + j)
		}
		cp.Fields = append(cp.Fields, Field{Name: name, Data: data.FromBytes(b)})
	}
	return cp
}

// runWorld executes body on a fresh world+fs and returns the collected
// stats (indexed by world rank) and the environment used.
func runWorld(t *testing.T, ranks int, strat Strategy, body func(env *Env, pl Plan, c *mpi.Comm, r *mpi.Rank)) (*storage.Core, *iolog.Log) {
	t.Helper()
	k := sim.NewKernel()
	m := machine.MustNew(k, xrand.New(1), machine.Intrepid(ranks))
	cfg := storage.DefaultGPFS()
	cfg.NoiseProb = 0
	fs, err := storage.NewGPFS(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	log := &iolog.Log{}
	env := &Env{FS: fs, Dir: "ckpt", Log: log}
	w := mpi.NewWorld(m, mpi.DefaultConfig())
	err = w.Run(func(c *mpi.Comm, r *mpi.Rank) {
		pl, err := strat.Plan(c, r)
		if err != nil {
			t.Errorf("rank %d plan: %v", r.ID(), err)
			return
		}
		body(env, pl, c, r)
	})
	if err != nil {
		t.Fatal(err)
	}
	return fs, log
}

// verifyRoundTrip writes a checkpoint with the strategy, reads it back, and
// compares every byte.
func verifyRoundTrip(t *testing.T, ranks, chunk int, strat Strategy) (*storage.Core, *iolog.Log) {
	t.Helper()
	return runWorld(t, ranks, strat, func(env *Env, pl Plan, c *mpi.Comm, r *mpi.Rank) {
		cp := makeCheckpoint(r.ID(), 3, chunk)
		if _, err := pl.Write(env, r, cp); err != nil {
			t.Errorf("rank %d write: %v", r.ID(), err)
			return
		}
		c.Barrier(r) // everyone durable before reading
		got, err := pl.Read(env, r, 3)
		if err != nil {
			t.Errorf("rank %d read: %v", r.ID(), err)
			return
		}
		if got.Step != 3 {
			t.Errorf("rank %d: restored step %d", r.ID(), got.Step)
		}
		if len(got.Fields) != len(fieldNames) {
			t.Errorf("rank %d: %d fields", r.ID(), len(got.Fields))
			return
		}
		for fi, f := range got.Fields {
			want := cp.Fields[fi]
			if f.Name != want.Name {
				t.Errorf("rank %d field %d name %q, want %q", r.ID(), fi, f.Name, want.Name)
			}
			if !f.Data.Real() {
				t.Errorf("rank %d field %q came back synthetic", r.ID(), f.Name)
				continue
			}
			if !bytes.Equal(f.Data.Bytes(), want.Data.Bytes()) {
				t.Errorf("rank %d field %q corrupted", r.ID(), f.Name)
			}
		}
	})
}

func TestOnePFPPRoundTrip(t *testing.T) {
	fs, _ := verifyRoundTrip(t, 64, 512, OnePFPP{})
	if fs.Stats.Creates != 64 {
		t.Fatalf("1PFPP created %d files, want 64", fs.Stats.Creates)
	}
}

func TestCoIOSingleFileRoundTrip(t *testing.T) {
	fs, _ := verifyRoundTrip(t, 64, 512, CoIO{NumFiles: 1, Hints: mpiio.DefaultHints()})
	if fs.Stats.Creates != 1 {
		t.Fatalf("coIO nf=1 created %d files, want 1", fs.Stats.Creates)
	}
}

func TestCoIOGroupedRoundTrip(t *testing.T) {
	fs, _ := verifyRoundTrip(t, 256, 768, CoIO{NumFiles: 4, Hints: mpiio.DefaultHints()})
	if fs.Stats.Creates != 4 {
		t.Fatalf("coIO nf=4 created %d files, want 4", fs.Stats.Creates)
	}
}

func TestRbIOIndependentRoundTrip(t *testing.T) {
	s := DefaultRbIO()
	s.GroupSize = 16
	fs, _ := verifyRoundTrip(t, 128, 640, s)
	if fs.Stats.Creates != 8 {
		t.Fatalf("rbIO nf=ng created %d files, want 8", fs.Stats.Creates)
	}
}

func TestRbIOSingleFileRoundTrip(t *testing.T) {
	s := DefaultRbIO()
	s.GroupSize = 16
	s.SingleFile = true
	s.Hints = mpiio.DefaultHints()
	fs, _ := verifyRoundTrip(t, 128, 640, s)
	if fs.Stats.Creates != 1 {
		t.Fatalf("rbIO nf=1 created %d files, want 1", fs.Stats.Creates)
	}
}

func TestRbIOUnbufferedRoundTrip(t *testing.T) {
	s := DefaultRbIO()
	s.GroupSize = 16
	s.BufferFields = false
	verifyRoundTrip(t, 64, 512, s)
}

func TestRbIOTinyWriterBuffer(t *testing.T) {
	// Force multiple flush cycles.
	s := DefaultRbIO()
	s.GroupSize = 16
	s.WriterBuffer = 4096
	verifyRoundTrip(t, 64, 512, s)
}

func TestRbIOWorkerBarelyBlocks(t *testing.T) {
	s := DefaultRbIO()
	s.GroupSize = 64
	var workerMax, writerMin float64
	writerMin = 1e18
	runWorld(t, 256, s, func(env *Env, pl Plan, c *mpi.Comm, r *mpi.Rank) {
		cp := makeCheckpoint(r.ID(), 1, 64<<10)
		st, err := pl.Write(env, r, cp)
		if err != nil {
			t.Error(err)
			return
		}
		switch st.Role {
		case RoleWorker:
			if st.Blocked() > workerMax {
				workerMax = st.Blocked()
			}
			if st.Perceived > st.Blocked()+1e-12 {
				t.Errorf("perceived %v exceeds blocked %v", st.Perceived, st.Blocked())
			}
		case RoleWriter:
			if st.Blocked() < writerMin {
				writerMin = st.Blocked()
			}
			if st.Durable != st.End {
				t.Error("writer durable time != end time")
			}
		}
	})
	if workerMax == 0 || writerMin == 1e18 {
		t.Fatal("roles missing")
	}
	// The whole point of rbIO: workers block orders of magnitude less than
	// writers.
	if workerMax*100 > writerMin {
		t.Fatalf("worker max block %v not << writer min block %v", workerMax, writerMin)
	}
}

func TestRbIORoles(t *testing.T) {
	s := DefaultRbIO()
	s.GroupSize = 8
	workers, writers := 0, 0
	runWorld(t, 64, s, func(env *Env, pl Plan, c *mpi.Comm, r *mpi.Rank) {
		st, err := pl.Write(env, r, makeCheckpoint(r.ID(), 1, 128))
		if err != nil {
			t.Error(err)
			return
		}
		switch st.Role {
		case RoleWorker:
			workers++
		case RoleWriter:
			writers++
			if r.ID()%8 != 0 {
				t.Errorf("rank %d is a writer but not a group leader", r.ID())
			}
		}
	})
	if writers != 8 || workers != 56 {
		t.Fatalf("roles: %d writers, %d workers", writers, workers)
	}
}

func TestMultipleSteps(t *testing.T) {
	s := DefaultRbIO()
	s.GroupSize = 8
	runWorld(t, 32, s, func(env *Env, pl Plan, c *mpi.Comm, r *mpi.Rank) {
		for step := int64(0); step < 3; step++ {
			cp := makeCheckpoint(r.ID(), step, 256)
			if _, err := pl.Write(env, r, cp); err != nil {
				t.Errorf("step %d: %v", step, err)
			}
		}
		c.Barrier(r)
		// Every step restorable with distinct content.
		for step := int64(0); step < 3; step++ {
			got, err := pl.Read(env, r, step)
			if err != nil {
				t.Errorf("read step %d: %v", step, err)
				continue
			}
			want := makeCheckpoint(r.ID(), step, 256)
			if !bytes.Equal(got.Fields[0].Data.Bytes(), want.Fields[0].Data.Bytes()) {
				t.Errorf("step %d content wrong", step)
			}
		}
	})
}

func TestUnevenChunkSizesAcrossRanks(t *testing.T) {
	// Different ranks contribute different amounts (irregular meshes); the
	// grouped layouts must still round-trip.
	s := CoIO{NumFiles: 2, Hints: mpiio.DefaultHints()}
	runWorld(t, 32, s, func(env *Env, pl Plan, c *mpi.Comm, r *mpi.Rank) {
		chunk := 100 + 13*r.ID()
		cp := makeCheckpoint(r.ID(), 0, chunk)
		if _, err := pl.Write(env, r, cp); err != nil {
			t.Error(err)
			return
		}
		c.Barrier(r)
		got, err := pl.Read(env, r, 0)
		if err != nil {
			t.Error(err)
			return
		}
		for fi := range got.Fields {
			if !bytes.Equal(got.Fields[fi].Data.Bytes(), cp.Fields[fi].Data.Bytes()) {
				t.Errorf("rank %d field %d corrupted", r.ID(), fi)
			}
		}
	})
}

func TestMismatchedFieldSizesRejected(t *testing.T) {
	runWorld(t, 32, OnePFPP{}, func(env *Env, pl Plan, c *mpi.Comm, r *mpi.Rank) {
		cp := &Checkpoint{Fields: []Field{
			{Name: "a", Data: data.Synthetic(100)},
			{Name: "b", Data: data.Synthetic(200)},
		}}
		if _, err := pl.Write(env, r, cp); err == nil {
			t.Error("mismatched field sizes accepted")
		}
	})
}

func TestPlanRejectsIndivisibleGroups(t *testing.T) {
	k := sim.NewKernel()
	m := machine.MustNew(k, xrand.New(1), machine.Intrepid(64))
	w := mpi.NewWorld(m, mpi.DefaultConfig())
	errs := 0
	err := w.Run(func(c *mpi.Comm, r *mpi.Rank) {
		if _, err := (CoIO{NumFiles: 7}).Plan(c, r); err != nil {
			errs++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if errs != 64 {
		t.Fatalf("%d ranks saw the plan error, want 64", errs)
	}
}

func TestSyntheticPaperScalePath(t *testing.T) {
	// Synthetic payloads flow through the same code and sizes land right.
	s := DefaultRbIO()
	s.GroupSize = 16
	const chunk = 2 << 20
	fs, _ := runWorld(t, 64, s, func(env *Env, pl Plan, c *mpi.Comm, r *mpi.Rank) {
		cp := &Checkpoint{Step: 9}
		for _, n := range fieldNames {
			cp.Fields = append(cp.Fields, Field{Name: n, Data: data.Synthetic(chunk)})
		}
		if _, err := pl.Write(env, r, cp); err != nil {
			t.Error(err)
			return
		}
		c.Barrier(r)
		got, err := pl.Read(env, r, 9)
		if err != nil {
			t.Errorf("rank %d: %v", r.ID(), err)
			return
		}
		for _, f := range got.Fields {
			if f.Data.Len() != chunk {
				t.Errorf("restored field %q has %d bytes", f.Name, f.Data.Len())
			}
			if f.Data.Real() {
				t.Errorf("synthetic checkpoint read back real data")
			}
		}
	})
	wantBytes := int64(64) * 6 * chunk
	if fs.Stats.BytesWritten < wantBytes {
		t.Fatalf("wrote %d bytes, want >= %d", fs.Stats.BytesWritten, wantBytes)
	}
}

func TestLogRecordsRoles(t *testing.T) {
	s := DefaultRbIO()
	s.GroupSize = 8
	_, log := runWorld(t, 32, s, func(env *Env, pl Plan, c *mpi.Comm, r *mpi.Rank) {
		if _, err := pl.Write(env, r, makeCheckpoint(r.ID(), 0, 1024)); err != nil {
			t.Error(err)
		}
	})
	var sends, recvs, writes, creates int
	for _, rec := range log.Records {
		switch rec.Op {
		case iolog.OpSend:
			sends++
		case iolog.OpRecv:
			recvs++
		case iolog.OpWrite:
			writes++
		case iolog.OpCreate:
			creates++
		}
	}
	if sends != 28*6 { // 28 workers x 6 fields
		t.Errorf("sends %d, want 168", sends)
	}
	if recvs != sends {
		t.Errorf("recvs %d != sends %d", recvs, sends)
	}
	if creates != 4 {
		t.Errorf("creates %d, want 4", creates)
	}
	if writes == 0 {
		t.Error("no write records")
	}
}

func TestBufferingReducesWriteCalls(t *testing.T) {
	writeOps := func(buffer bool) int {
		s := DefaultRbIO()
		s.GroupSize = 16
		s.BufferFields = buffer
		_, log := runWorld(t, 32, s, func(env *Env, pl Plan, c *mpi.Comm, r *mpi.Rank) {
			if _, err := pl.Write(env, r, makeCheckpoint(r.ID(), 0, 4096)); err != nil {
				t.Error(err)
			}
		})
		n := 0
		for _, rec := range log.Records {
			if rec.Op == iolog.OpWrite {
				n++
			}
		}
		return n
	}
	buffered, unbuffered := writeOps(true), writeOps(false)
	if buffered >= unbuffered {
		t.Fatalf("buffering did not reduce write calls: %d vs %d", buffered, unbuffered)
	}
}

func TestStrategyNames(t *testing.T) {
	cases := map[Strategy]string{
		OnePFPP{}:                             "1PFPP",
		CoIO{NumFiles: 1}:                     "coIO(nf=1)",
		CoIO{NumFiles: 64}:                    "coIO(nf=64)",
		RbIO{GroupSize: 64}:                   "rbIO(64:1,nf=ng)",
		RbIO{GroupSize: 32, SingleFile: true}: "rbIO(32:1,nf=1)",
	}
	for s, want := range cases {
		if s.Name() != want {
			t.Errorf("Name() = %q, want %q", s.Name(), want)
		}
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() string {
		var out string
		s := DefaultRbIO()
		s.GroupSize = 8
		runWorld(t, 64, s, func(env *Env, pl Plan, c *mpi.Comm, r *mpi.Rank) {
			st, err := pl.Write(env, r, makeCheckpoint(r.ID(), 0, 2048))
			if err != nil {
				t.Error(err)
				return
			}
			if st.Role == RoleWriter && r.ID() == 0 {
				out = fmt.Sprintf("%.12g", st.End)
			}
		})
		return out
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("runs diverged: %s vs %s", a, b)
	}
}

// runWorldPVFS mirrors runWorld on the PVFS model, exercising the
// strategies' independence from the file system implementation.
func runWorldPVFS(t *testing.T, ranks int, strat Strategy, body func(env *Env, pl Plan, c *mpi.Comm, r *mpi.Rank)) *storage.Core {
	t.Helper()
	k := sim.NewKernel()
	m := machine.MustNew(k, xrand.New(1), machine.Intrepid(ranks))
	cfg := storage.DefaultPVFS()
	cfg.NoiseProb = 0
	fs, err := storage.NewPVFS(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	env := &Env{FS: fs, Dir: "ckpt"}
	w := mpi.NewWorld(m, mpi.DefaultConfig())
	err = w.Run(func(c *mpi.Comm, r *mpi.Rank) {
		pl, err := strat.Plan(c, r)
		if err != nil {
			t.Errorf("rank %d plan: %v", r.ID(), err)
			return
		}
		body(env, pl, c, r)
	})
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestStrategiesRoundTripOnPVFS(t *testing.T) {
	// Every strategy must round-trip unchanged on the lock-free,
	// cache-off file system model.
	strategies := []Strategy{
		OnePFPP{},
		CoIO{NumFiles: 4, Hints: mpiio.DefaultHints()},
		func() Strategy { s := DefaultRbIO(); s.GroupSize = 16; return s }(),
		func() Strategy {
			s := DefaultRbIO()
			s.GroupSize = 16
			s.SingleFile = true
			s.Hints = mpiio.DefaultHints()
			return s
		}(),
	}
	for _, strat := range strategies {
		strat := strat
		t.Run(strat.Name(), func(t *testing.T) {
			runWorldPVFS(t, 64, strat, func(env *Env, pl Plan, c *mpi.Comm, r *mpi.Rank) {
				cp := makeCheckpoint(r.ID(), 2, 512)
				if _, err := pl.Write(env, r, cp); err != nil {
					t.Errorf("rank %d write: %v", r.ID(), err)
					return
				}
				c.Barrier(r)
				got, err := pl.Read(env, r, 2)
				if err != nil {
					t.Errorf("rank %d read: %v", r.ID(), err)
					return
				}
				for fi := range got.Fields {
					if !bytes.Equal(got.Fields[fi].Data.Bytes(), cp.Fields[fi].Data.Bytes()) {
						t.Errorf("rank %d field %d corrupted on pvfs", r.ID(), fi)
					}
				}
			})
		})
	}
}

func TestWrittenFilesValidate(t *testing.T) {
	// Every strategy's output must pass the structural validator.
	strategies := []Strategy{
		OnePFPP{},
		CoIO{NumFiles: 2, Hints: mpiio.DefaultHints()},
		func() Strategy { s := DefaultRbIO(); s.GroupSize = 16; return s }(),
		RbIO{GroupSize: 16, SingleFile: true, WriterBuffer: 512 << 20, BufferFields: true, Hints: mpiio.DefaultHints()},
	}
	paths := map[string][]string{
		"1PFPP":            {"ckpt/step000004.p000000.nek", "ckpt/step000004.p000031.nek"},
		"coIO(nf=2)":       {"ckpt/step000004.f00000.nek", "ckpt/step000004.f00001.nek"},
		"rbIO(16:1,nf=ng)": {"ckpt/step000004.f00000.nek", "ckpt/step000004.f00001.nek"},
		"rbIO(16:1,nf=1)":  {"ckpt/step000004.f00000.nek"},
	}
	for _, strat := range strategies {
		strat := strat
		t.Run(strat.Name(), func(t *testing.T) {
			runWorld(t, 32, strat, func(env *Env, pl Plan, c *mpi.Comm, r *mpi.Rank) {
				cp := makeCheckpoint(r.ID(), 4, 384)
				if _, err := pl.Write(env, r, cp); err != nil {
					t.Error(err)
					return
				}
				c.Barrier(r)
				if r.ID() != 0 {
					return
				}
				for _, path := range paths[strat.Name()] {
					hdr, checked, err := validateFile(env, r, path)
					if err != nil {
						t.Errorf("%s: %v", path, err)
						continue
					}
					if checked != len(hdr.Fields) {
						t.Errorf("%s: only %d/%d blocks materialized", path, checked, len(hdr.Fields))
					}
					if hdr.Step != 4 {
						t.Errorf("%s: step %d", path, hdr.Step)
					}
				}
			})
		})
	}
}

// validateFile structurally verifies a written checkpoint file on the
// simulated file system: master header, advertised size, and (in content
// mode) every field's block header. It returns the parsed header and how
// many block headers were materialized and checked.
func validateFile(env *Env, r *mpi.Rank, path string) (*cemfmt.Header, int, error) {
	p := r.Proc()
	h, err := env.FS.Open(p, r.ID(), path)
	if err != nil {
		return nil, 0, err
	}
	defer h.Close(p, r.ID())
	read := func(off, n int64) ([]byte, error) {
		buf, err := h.ReadAt(p, r.ID(), off, n)
		if err != nil {
			return nil, err
		}
		if !buf.Real() {
			return nil, nil // synthetic region: structure not inspectable
		}
		return buf.Bytes(), nil
	}
	return cemfmt.Validate(read, h.Size())
}
