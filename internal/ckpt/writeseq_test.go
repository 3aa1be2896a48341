package ckpt

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	_ "repro/internal/bbuf"
	"repro/internal/bgp"
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
		fmt.Fprintf(&out, "%s: %s\n", c.name, writeSequence(t, np, c.backend, c.strat, c.rankUp))
	}
	checkWriteSeqGolden(t, out.String())
}

// writeSequence runs four checkpoint steps and digests what they did.
func writeSequence(t *testing.T, np int, backend fsys.Backend, strat Strategy, rankUp func(int) bool) string {
	t.Helper()
	k := sim.NewKernel()
	m := machine.MustNew(k, xrand.New(1), bgp.Intrepid(np))
	fs, err := fsys.Mount(backend, m, fsys.MountOptions{})
	if err != nil {
		t.Fatal(err)
	}
	epochs := &epochRecorder{}
	env := &Env{FS: fs, Dir: "ckpt", Log: &iolog.Log{}, RankUp: rankUp, Epochs: epochs}
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
		p := r.Proc()
		for _, b := range epochs.blocks {
			if b.Level != LevelGlobal || files[b.Path] != nil {
				continue
			}
			h, err := fs.Open(p, r.ID(), b.Path)
			if err != nil {
				t.Errorf("open %s: %v", b.Path, err)
				return
			}
			buf, err := h.ReadAt(p, r.ID(), 0, h.Size())
			if err != nil || !buf.Real() {
				t.Errorf("read %s: %v (real %v)", b.Path, err, buf.Real())
				return
			}
			files[b.Path] = buf.Bytes()
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
	paths := make([]string, 0, len(files))
	for path := range files {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	fh := sha256.New()
	for _, path := range paths {
		fmt.Fprintf(fh, "%s %d\n", path, len(files[path]))
		fh.Write(files[path])
	}
	return fmt.Sprintf("events=%d ops=%d/%.16x epochs=%d+%d+%d/%.16x files=%d/%.16x",
		k.Events(), len(env.Log.Records), ops.Sum(nil),
		len(epochs.blocks), len(epochs.commits), len(epochs.losses), eps.Sum(nil),
		len(paths), fh.Sum(nil))
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
