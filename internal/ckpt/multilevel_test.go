package ckpt

import (
	"bytes"
	"testing"

	"repro/internal/mpi"
)

func mlStrategy(globalEvery int) MultiLevel {
	s := DefaultMultiLevel()
	s.GlobalEvery = globalEvery
	g := DefaultRbIO()
	g.GroupSize = 8
	s.Global = g
	return s
}

func TestMultiLevelCadence(t *testing.T) {
	// With GlobalEvery=3, checkpoints 1 and 2 stay local-only; checkpoint 3
	// also reaches the parallel file system.
	fs, _ := runWorld(t, 32, mlStrategy(3), func(env *Env, pl Plan, c *mpi.Comm, r *mpi.Rank) {
		for step := int64(1); step <= 3; step++ {
			if _, err := pl.Write(env, r, makeCheckpoint(r.ID(), step, 512)); err != nil {
				t.Error(err)
				return
			}
		}
	})
	// Only the third checkpoint created PFS files: 4 rbIO group files.
	if fs.Stats.Creates != 4 {
		t.Fatalf("PFS creates %d, want 4 (only the global-every-3rd checkpoint)", fs.Stats.Creates)
	}
}

func TestMultiLevelLocalIsFast(t *testing.T) {
	var localMax, globalMax float64
	runWorld(t, 32, mlStrategy(2), func(env *Env, pl Plan, c *mpi.Comm, r *mpi.Rank) {
		st1, err := pl.Write(env, r, makeCheckpoint(r.ID(), 1, 64<<10))
		if err != nil {
			t.Error(err)
			return
		}
		st2, err := pl.Write(env, r, makeCheckpoint(r.ID(), 2, 64<<10))
		if err != nil {
			t.Error(err)
			return
		}
		if st1.Blocked() > localMax {
			localMax = st1.Blocked()
		}
		if st2.Role == RoleWriter && st2.Blocked() > globalMax {
			globalMax = st2.Blocked()
		}
	})
	if localMax == 0 || globalMax == 0 {
		t.Fatal("missing measurements")
	}
	// The whole point of the local level: an order of magnitude cheaper
	// than a PFS checkpoint.
	if localMax*10 > globalMax {
		t.Fatalf("local checkpoint (%.4fs) not >>10x faster than global (%.4fs)", localMax, globalMax)
	}
}

func TestMultiLevelReadPrefersLocal(t *testing.T) {
	runWorld(t, 32, mlStrategy(1), func(env *Env, pl Plan, c *mpi.Comm, r *mpi.Rank) {
		cp := makeCheckpoint(r.ID(), 5, 256)
		if _, err := pl.Write(env, r, cp); err != nil {
			t.Error(err)
			return
		}
		c.Barrier(r)
		if held := pl.(*mlPlan).sh.local[r.ID()].cp; held == nil || held.Step != 5 {
			t.Errorf("rank %d local level does not hold step 5", r.ID())
		}
		t0 := r.Now()
		got, err := pl.Read(env, r, 5)
		if err != nil {
			t.Error(err)
			return
		}
		localTime := r.Now() - t0
		if !bytes.Equal(got.Fields[0].Data.Bytes(), cp.Fields[0].Data.Bytes()) {
			t.Error("local read corrupted")
		}
		// A local read never touches the PFS; it should be sub-millisecond
		// for 1.5 KB x 6 fields.
		if localTime > 0.01 {
			t.Errorf("local read took %v s", localTime)
		}
	})
}

func TestMultiLevelFallbackAfterNodeLoss(t *testing.T) {
	runWorld(t, 32, mlStrategy(1), func(env *Env, pl Plan, c *mpi.Comm, r *mpi.Rank) {
		cp := makeCheckpoint(r.ID(), 7, 256)
		if _, err := pl.Write(env, r, cp); err != nil {
			t.Error(err)
			return
		}
		c.Barrier(r)
		// The node died: its RAM disk is gone, so the read must come from
		// the PFS.
		pl.(*mlPlan).sh.local[r.ID()].cp = nil
		got, err := pl.Read(env, r, 7)
		if err != nil {
			t.Errorf("rank %d global fallback failed: %v", r.ID(), err)
			return
		}
		for fi := range got.Fields {
			if !bytes.Equal(got.Fields[fi].Data.Bytes(), cp.Fields[fi].Data.Bytes()) {
				t.Errorf("rank %d field %d corrupted via global fallback", r.ID(), fi)
			}
		}
	})
}

func TestMultiLevelLocalOnlyNotGloballyReadable(t *testing.T) {
	// A local-only checkpoint (step not flushed globally) is lost with the
	// node: the fallback read must fail, not fabricate data.
	runWorld(t, 32, mlStrategy(2), func(env *Env, pl Plan, c *mpi.Comm, r *mpi.Rank) {
		if _, err := pl.Write(env, r, makeCheckpoint(r.ID(), 1, 128)); err != nil {
			t.Error(err)
			return
		}
		c.Barrier(r)
		pl.(*mlPlan).sh.local[r.ID()].cp = nil // the node died; RAM disk gone
		if _, err := pl.Read(env, r, 1); err == nil {
			t.Error("read of a lost local-only checkpoint succeeded")
		}
	})
}

func TestMultiLevelName(t *testing.T) {
	if got := DefaultMultiLevel().Name(); got != "multilevel(local+rbIO(64:1,nf=ng)/4)" {
		t.Fatalf("name %q", got)
	}
	if _, err := (MultiLevel{}).Plan(nil, nil); err == nil {
		t.Fatal("nil global strategy accepted")
	}
}
