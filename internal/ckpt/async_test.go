package ckpt

import (
	"bytes"
	"testing"

	"repro/internal/data"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/xrand"
)

// runAsyncWorld is runWorld with a caller-built Env, so fault rules can see
// the kernel clock and epoch sinks can be attached.
func runAsyncWorld(t *testing.T, ranks int, strat Strategy, mkEnv func(k *sim.Kernel, m *machine.Machine, fs *storage.Core) *Env, body func(env *Env, pl Plan, c *mpi.Comm, r *mpi.Rank)) *storage.Core {
	t.Helper()
	k := sim.NewKernel()
	m := machine.MustNew(k, xrand.New(1), machine.Intrepid(ranks))
	cfg := storage.DefaultGPFS()
	cfg.NoiseProb = 0
	fs, err := storage.NewGPFS(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	env := mkEnv(k, m, fs)
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

func plainEnv(k *sim.Kernel, m *machine.Machine, fs *storage.Core) *Env {
	return &Env{FS: fs, Dir: "ckpt"}
}

// TestAsyncRoundTrip pins the full lifecycle at 64 ranks (one pset, one
// aggregated file): Write returns an async, not-yet-durable Stats;
// WaitDurable delivers exactly one FlushStats whose durable point is past
// the snapshot; and the aggregated file restores every byte.
func TestAsyncRoundTrip(t *testing.T) {
	fs := runAsyncWorld(t, 64, DefaultAsync(), plainEnv, func(env *Env, pl Plan, c *mpi.Comm, r *mpi.Rank) {
		cp := makeCheckpoint(r.ID(), 3, 512)
		st, err := pl.Write(env, r, cp)
		if err != nil {
			t.Errorf("rank %d write: %v", r.ID(), err)
			return
		}
		if !st.Async {
			t.Errorf("rank %d: async Write returned Async=false", r.ID())
		}
		if st.Durable != 0 {
			t.Errorf("rank %d: async Write claims durability at %v", r.ID(), st.Durable)
		}
		ap, ok := pl.(AsyncPlan)
		if !ok {
			t.Errorf("async plan does not implement AsyncPlan")
			return
		}
		fst, err := ap.WaitDurable(env, r)
		if err != nil {
			t.Errorf("rank %d drain: %v", r.ID(), err)
			return
		}
		if len(fst) != 1 {
			t.Errorf("rank %d drained %d flushes, want 1", r.ID(), len(fst))
			return
		}
		f := fst[0]
		if f.Lost || f.Step != 3 || st.Bytes != 6*512 {
			t.Errorf("rank %d flush stats %+v", r.ID(), f)
		}
		if f.Durable < st.End || f.FlushSec() <= 0 {
			t.Errorf("rank %d: flush durable at %v not after snapshot end %v", r.ID(), f.Durable, st.End)
		}
		c.Barrier(r)
		got, err := pl.Read(env, r, 3)
		if err != nil {
			t.Errorf("rank %d read: %v", r.ID(), err)
			return
		}
		for fi := range got.Fields {
			if !bytes.Equal(got.Fields[fi].Data.Bytes(), cp.Fields[fi].Data.Bytes()) {
				t.Errorf("rank %d field %d corrupted", r.ID(), fi)
			}
		}
	})
	if fs.Stats.Creates != 1 {
		t.Fatalf("async created %d files, want 1 aggregated file per pset", fs.Stats.Creates)
	}
}

// TestAsyncSnapshotBarelyBlocks pins the strategy's point: at a realistic
// payload the blocking phase (the RAM snapshot) is at least an order of
// magnitude shorter than the background flush through shared storage.
func TestAsyncSnapshotBarelyBlocks(t *testing.T) {
	var blockedMax, flushMin float64
	flushMin = 1e18
	runAsyncWorld(t, 64, DefaultAsync(), plainEnv, func(env *Env, pl Plan, c *mpi.Comm, r *mpi.Rank) {
		cp := &Checkpoint{Step: 1}
		for _, n := range fieldNames {
			cp.Fields = append(cp.Fields, Field{Name: n, Data: data.Synthetic(2 << 20)})
		}
		st, err := pl.Write(env, r, cp)
		if err != nil {
			t.Error(err)
			return
		}
		fst, err := pl.(AsyncPlan).WaitDurable(env, r)
		if err != nil || len(fst) != 1 {
			t.Errorf("rank %d drain: %v (%d stats)", r.ID(), err, len(fst))
			return
		}
		if st.Blocked() > blockedMax {
			blockedMax = st.Blocked()
		}
		if fl := fst[0].FlushSec(); fl < flushMin {
			flushMin = fl
		}
	})
	if blockedMax == 0 || flushMin == 1e18 {
		t.Fatal("no stats collected")
	}
	if blockedMax*10 > flushMin {
		t.Fatalf("snapshot blocked %v not << background flush %v", blockedMax, flushMin)
	}
}

// TestAsyncBackpressure pins the flight-slot contract: with two slots, the
// second Write returns before the first step's flush lands, and the third
// must first drain it — the solver feels sync-like blocking exactly when it
// outruns the storage.
func TestAsyncBackpressure(t *testing.T) {
	runAsyncWorld(t, 64, DefaultAsync(), plainEnv, func(env *Env, pl Plan, c *mpi.Comm, r *mpi.Rank) {
		var st [3]Stats
		for i := range st {
			var err error
			if st[i], err = pl.Write(env, r, makeCheckpoint(r.ID(), int64(i), 64<<10)); err != nil {
				t.Error(err)
				return
			}
		}
		fst, err := pl.(AsyncPlan).WaitDurable(env, r)
		if err != nil {
			t.Error(err)
			return
		}
		if len(fst) != 3 || fst[0].Step != 0 || fst[1].Step != 1 || fst[2].Step != 2 {
			t.Errorf("rank %d drained %+v, want steps 0, 1 then 2", r.ID(), fst)
			return
		}
		if st[1].End >= fst[0].Durable {
			t.Errorf("rank %d: second Write returned at %v, not before the first flush landed at %v", r.ID(), st[1].End, fst[0].Durable)
		}
		if fst[0].Durable > st[2].End {
			t.Errorf("rank %d: third Write returned at %v before slot drained at %v", r.ID(), st[2].End, fst[0].Durable)
		}
		if st[2].Blocked() <= st[0].Blocked() {
			t.Errorf("rank %d: backpressured Write blocked %v, not above free Write %v", r.ID(), st[2].Blocked(), st[0].Blocked())
		}
	})
}

// epochRecorder is a test EpochSink capturing commit/lost records.
type epochRecorder struct {
	blocks  []BlockRecord
	commits []CommitRecord
	losses  []LostRecord
}

func (e *epochRecorder) EpochBlock(r BlockRecord)   { e.blocks = append(e.blocks, r) }
func (e *epochRecorder) EpochCommit(r CommitRecord) { e.commits = append(e.commits, r) }
func (e *epochRecorder) EpochLost(r LostRecord)     { e.losses = append(e.losses, r) }

// TestAsyncEpochSealsAtFlush pins the two-phase integration: an epoch
// commit is issued when the background flush lands on storage, never at the
// snapshot — durability the manifest log can trust.
func TestAsyncEpochSealsAtFlush(t *testing.T) {
	rec := &epochRecorder{}
	var snapMax float64
	durable := map[int]float64{}
	runAsyncWorld(t, 64, DefaultAsync(),
		func(k *sim.Kernel, m *machine.Machine, fs *storage.Core) *Env {
			return &Env{FS: fs, Dir: "ckpt", Epochs: rec}
		},
		func(env *Env, pl Plan, c *mpi.Comm, r *mpi.Rank) {
			st, err := pl.Write(env, r, makeCheckpoint(r.ID(), 5, 4096))
			if err != nil {
				t.Error(err)
				return
			}
			if st.End > snapMax {
				snapMax = st.End
			}
			fst, err := pl.(AsyncPlan).WaitDurable(env, r)
			if err != nil || len(fst) != 1 {
				t.Errorf("rank %d drain: %v", r.ID(), err)
				return
			}
			durable[r.ID()] = fst[0].Durable
		})
	if len(rec.commits) != 64 {
		t.Fatalf("%d epoch commits, want 64", len(rec.commits))
	}
	if len(rec.losses) != 0 {
		t.Fatalf("fault-free run recorded %d losses", len(rec.losses))
	}
	if len(rec.blocks) == 0 {
		t.Fatal("no data blocks manifested")
	}
	for _, cr := range rec.commits {
		if cr.Time <= snapMax {
			t.Errorf("rank %d epoch sealed at %v, before the last snapshot %v", cr.Rank, cr.Time, snapMax)
		}
		if d := durable[cr.Rank]; cr.Time != d {
			t.Errorf("rank %d epoch sealed at %v, flush durable at %v", cr.Rank, cr.Time, d)
		}
	}
}

// TestAsyncNodeDeadAtSnapshot pins the dead-at-Write path: the dead node's
// ranks skip the snapshot but still arrive, so the pset's flight completes
// and the survivors' data becomes durable, with the dead ranks' chunks
// recorded as epoch losses.
func TestAsyncNodeDeadAtSnapshot(t *testing.T) {
	rec := &epochRecorder{}
	var deadNode int
	runAsyncWorld(t, 64, DefaultAsync(),
		func(k *sim.Kernel, m *machine.Machine, fs *storage.Core) *Env {
			deadNode = m.NodeOfRank(0)
			return &Env{FS: fs, Dir: "ckpt", Epochs: rec,
				RankUp: func(w int) bool { return m.NodeOfRank(w) != deadNode }}
		},
		func(env *Env, pl Plan, c *mpi.Comm, r *mpi.Rank) {
			st, err := pl.Write(env, r, makeCheckpoint(r.ID(), 2, 2048))
			if err != nil {
				t.Error(err)
				return
			}
			fst, err := pl.(AsyncPlan).WaitDurable(env, r)
			if err != nil {
				t.Error(err)
				return
			}
			if !env.Up(r.ID()) {
				if !st.Skipped || !st.DeadRank {
					t.Errorf("dead rank %d stats %+v, want Skipped+DeadRank", r.ID(), st)
				}
				if len(fst) != 0 {
					t.Errorf("dead rank %d drained %d flushes, want 0", r.ID(), len(fst))
				}
				return
			}
			if len(fst) != 1 || fst[0].Lost {
				t.Errorf("live rank %d flush %+v, want one durable flush", r.ID(), fst)
			}
		})
	if len(rec.losses) != 4 { // Intrepid runs 4 ranks per node
		t.Fatalf("%d epoch losses, want the dead node's 4 ranks", len(rec.losses))
	}
	if len(rec.commits) != 60 {
		t.Fatalf("%d epoch commits, want the 60 survivors", len(rec.commits))
	}
}

// TestAsyncNodeDiesHoldingSnapshot pins the loss async genuinely risks: a
// node that dies after snapshotting but before its pset's flush holds the
// only copy in dead RAM. The dying node's ranks snapshot a small chunk (so
// they arrive early) while the rest snapshot a large one (so the flush —
// which fires at the last arrival — starts much later); a probe run finds
// the two instants and the real run cuts the node between them.
func TestAsyncNodeDiesHoldingSnapshot(t *testing.T) {
	var mach *machine.Machine
	deadNode := -1
	chunkOf := func(r *mpi.Rank) int {
		if mach.NodeOfRank(r.ID()) == deadNode {
			return 1024
		}
		return 64 << 10
	}
	deadSnapEnd, flushStart := 0.0, 0.0
	runAsyncWorld(t, 64, DefaultAsync(),
		func(k *sim.Kernel, m *machine.Machine, fs *storage.Core) *Env {
			mach, deadNode = m, m.NodeOfRank(0)
			return &Env{FS: fs, Dir: "ckpt"}
		},
		func(env *Env, pl Plan, c *mpi.Comm, r *mpi.Rank) {
			st, err := pl.Write(env, r, makeCheckpoint(r.ID(), 2, chunkOf(r)))
			if err != nil {
				t.Error(err)
				return
			}
			if mach.NodeOfRank(r.ID()) == deadNode {
				if st.End > deadSnapEnd {
					deadSnapEnd = st.End
				}
			} else if st.End > flushStart {
				flushStart = st.End
			}
			if _, err := pl.(AsyncPlan).WaitDurable(env, r); err != nil {
				t.Error(err)
			}
		})
	if flushStart <= deadSnapEnd {
		t.Fatalf("probe run: flush start %v not after the early snapshots %v", flushStart, deadSnapEnd)
	}
	cut := (deadSnapEnd + flushStart) / 2

	rec := &epochRecorder{}
	runAsyncWorld(t, 64, DefaultAsync(),
		func(k *sim.Kernel, m *machine.Machine, fs *storage.Core) *Env {
			mach, deadNode = m, m.NodeOfRank(0)
			return &Env{FS: fs, Dir: "ckpt", Epochs: rec,
				RankUp: func(w int) bool {
					return m.NodeOfRank(w) != deadNode || k.Now() < cut
				}}
		},
		func(env *Env, pl Plan, c *mpi.Comm, r *mpi.Rank) {
			st, err := pl.Write(env, r, makeCheckpoint(r.ID(), 2, chunkOf(r)))
			if err != nil {
				t.Error(err)
				return
			}
			if st.Skipped {
				t.Errorf("rank %d skipped the snapshot; the cut %v landed before its Write", r.ID(), cut)
			}
			fst, err := pl.(AsyncPlan).WaitDurable(env, r)
			if err != nil || len(fst) != 1 {
				t.Errorf("rank %d drain: %v", r.ID(), err)
				return
			}
			if mach.NodeOfRank(r.ID()) == deadNode {
				if !fst[0].Lost {
					t.Errorf("rank %d snapshotted on the dead node but its flush claims durability", r.ID())
				}
			} else if fst[0].Lost {
				t.Errorf("surviving rank %d lost its flush", r.ID())
			}
		})
	if len(rec.losses) != 4 {
		t.Fatalf("%d epoch losses, want the dead node's 4 ranks", len(rec.losses))
	}
	for _, l := range rec.losses {
		if l.Reason != "node lost before flush" {
			t.Errorf("loss reason %q, want the in-RAM loss", l.Reason)
		}
	}
	if len(rec.commits) != 60 {
		t.Fatalf("%d epoch commits, want the 60 survivors", len(rec.commits))
	}
}
