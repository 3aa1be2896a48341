package ckpt

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	_ "repro/internal/bbuf"
	"repro/internal/fsys"
	"repro/internal/iolog"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// TestWriteSequenceGolden pins every strategy's exact write sequence: the
// kernel's event count, the op log (rank, op, start and end to the bit,
// bytes), the epoch records, and the bytes of every file written. Each
// case writes four content-mode steps at np=256: every registered strategy
// on gpfs, async on bbuf too, and three rbIO nf=ng variants that take the
// writer's other commit paths (no field buffering, a 4 KB buffer that
// flushes every second field, and an always-up RankUp that runs the
// fault-aware writer). Regenerate with UPDATE_GOLDEN=1.
//
// Recording is free: every case, and every strategy on pvfs, runs a second
// time with Env.Epochs nil and must dispatch the same kernel events, log the
// same ops and write the same bytes.
func TestWriteSequenceGolden(t *testing.T) {
	const np = 256
	type wcase struct {
		name    string
		backend fsys.Backend
		strat   Strategy
		rankUp  func(int) bool
	}
	var cases []wcase
	for _, d := range Strategies() {
		cases = append(cases, wcase{name: d.Name, backend: "gpfs", strat: d.New(np)})
	}
	unbuffered, small := DefaultRbIO(), DefaultRbIO()
	unbuffered.BufferFields = false
	small.WriterBuffer = 4096
	cases = append(cases,
		wcase{name: "async/bbuf", backend: "bbuf", strat: DefaultAsync()},
		wcase{name: "rbio/unbuffered", backend: "gpfs", strat: unbuffered},
		wcase{name: "rbio/buffer4096", backend: "gpfs", strat: small},
		wcase{name: "rbio/rankup", backend: "gpfs", strat: DefaultRbIO(), rankUp: func(int) bool { return true }},
	)
	var out strings.Builder
	for _, c := range cases {
		rec := writeSequence(t, np, c.backend, c.strat, c.rankUp, nil)
		fmt.Fprintf(&out, "%s: %s\n", c.name, rec)
		checkRecordingFree(t, c.name, rec, writeSequence(t, np, c.backend, c.strat, c.rankUp, &rec))
	}
	checkWriteSeqGolden(t, out.String())
	for _, d := range Strategies() {
		rec := writeSequence(t, np, "pvfs", d.New(np), nil, nil)
		checkRecordingFree(t, d.Name+"/pvfs", rec, writeSequence(t, np, "pvfs", d.New(np), nil, &rec))
	}
}

// seqDigest is what one writeSequence run did.
type seqDigest struct {
	events uint64
	ops    string   // op-log record count and digest
	epochs string   // epoch record counts and digest
	files  string   // global-level file count and digest
	paths  []string // the global-level files read back, in epoch order
}

func (d seqDigest) String() string {
	return fmt.Sprintf("events=%d ops=%s epochs=%s files=%s", d.events, d.ops, d.epochs, d.files)
}

// checkRecordingFree requires a run without an epoch sink to match the
// recorded run in everything but the epoch records.
func checkRecordingFree(t *testing.T, name string, rec, bare seqDigest) {
	t.Helper()
	if bare.events != rec.events || bare.ops != rec.ops || bare.files != rec.files {
		t.Errorf("%s: epoch recording perturbs the run:\nrecorded: %s\nbare:     %s", name, rec, bare)
	}
}

// writeSequence runs four checkpoint steps and digests what they did. With
// recorded nil it records epochs and reads back the global-level files they
// name; otherwise it runs with Env.Epochs nil and reads back recorded's
// files, in the same order.
func writeSequence(t *testing.T, np int, backend fsys.Backend, strat Strategy, rankUp func(int) bool, recorded *seqDigest) seqDigest {
	t.Helper()
	k := sim.NewKernel()
	m := machine.MustNew(k, xrand.New(1), machine.Intrepid(np))
	fs, err := fsys.Mount(backend, m, fsys.MountOptions{})
	if err != nil {
		t.Fatal(err)
	}
	epochs := &epochRecorder{}
	env := &Env{FS: fs, Dir: "ckpt", Log: &iolog.Log{}, RankUp: rankUp}
	var paths []string
	if recorded == nil {
		env.Epochs = epochs
	} else {
		paths = recorded.paths
	}
	files := map[string][]byte{}
	w := mpi.NewWorld(m, mpi.DefaultConfig())
	err = w.Run(func(c *mpi.Comm, r *mpi.Rank) {
		pl, err := strat.Plan(c, r)
		if err != nil {
			t.Errorf("rank %d plan: %v", r.ID(), err)
			return
		}
		for step := int64(1); step <= 4; step++ {
			if _, err := pl.Write(env, r, makeCheckpoint(r.ID(), step, 48)); err != nil {
				t.Errorf("rank %d write: %v", r.ID(), err)
				return
			}
		}
		if ap, ok := pl.(AsyncPlan); ok {
			if _, err := ap.WaitDurable(env, r); err != nil {
				t.Errorf("rank %d drain: %v", r.ID(), err)
				return
			}
		}
		c.Barrier(r)
		if r.ID() != 0 {
			return
		}
		if recorded == nil {
			for _, b := range epochs.blocks {
				if b.Level == LevelGlobal && !slices.Contains(paths, b.Path) {
					paths = append(paths, b.Path)
				}
			}
		}
		p := r.Proc()
		for _, path := range paths {
			h, err := fs.Open(p, r.ID(), path)
			if err != nil {
				t.Errorf("open %s: %v", path, err)
				return
			}
			buf, err := h.ReadAt(p, r.ID(), 0, h.Size())
			if err != nil || !buf.Real() {
				t.Errorf("read %s: %v (real %v)", path, err, buf.Real())
				return
			}
			files[path] = buf.Bytes()
			h.Close(p, r.ID())
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	ops := sha256.New()
	for _, rec := range env.Log.Records {
		putInts(ops, int64(rec.Rank), int64(rec.Op), int64(math.Float64bits(rec.Start)),
			int64(math.Float64bits(rec.End)), rec.Bytes)
	}
	eps := sha256.New()
	for _, b := range epochs.blocks {
		fmt.Fprintf(eps, "b %d %d %d %s %d %d %x\n", b.Level, b.Step, b.Rank, b.Path, b.Offset, b.Bytes, math.Float64bits(b.Time))
	}
	for _, c := range epochs.commits {
		fmt.Fprintf(eps, "c %d %d %d %d %x\n", c.Level, c.Step, c.Rank, c.Blocks, math.Float64bits(c.Time))
	}
	for _, l := range epochs.losses {
		fmt.Fprintf(eps, "l %d %d %d %s %x\n", l.Level, l.Step, l.Rank, l.Reason, math.Float64bits(l.Time))
	}
	sorted := slices.Clone(paths)
	sort.Strings(sorted)
	fh := sha256.New()
	for _, path := range sorted {
		fmt.Fprintf(fh, "%s %d\n", path, len(files[path]))
		fh.Write(files[path])
	}
	return seqDigest{
		events: k.Events(),
		ops:    fmt.Sprintf("%d/%.16x", len(env.Log.Records), ops.Sum(nil)),
		epochs: fmt.Sprintf("%d+%d+%d/%.16x", len(epochs.blocks), len(epochs.commits), len(epochs.losses), eps.Sum(nil)),
		files:  fmt.Sprintf("%d/%.16x", len(sorted), fh.Sum(nil)),
		paths:  paths,
	}
}

func putInts(h hash.Hash, vs ...int64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
}

// checkWriteSeqGolden compares got with testdata/writeseq.golden, or
// rewrites the file when UPDATE_GOLDEN is set.
func checkWriteSeqGolden(t *testing.T, got string) {
	t.Helper()
	path := filepath.Join("testdata", "writeseq.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("write sequence differs from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}
