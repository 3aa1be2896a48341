package recover

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/ckpt"
)

// epoch returns the epoch at a lifecycle-global step (nil if never started).
func epoch(l *Log, level ckpt.Level, step int64) *Epoch { return l.epochs[epochKey{level, step}] }

// sealEpoch pushes a full two-phase epoch (blocks + commits for every rank)
// through the segment at the given local step.
func sealEpoch(s *Segment, level ckpt.Level, step int64, ranks int, t float64) {
	for r := 0; r < ranks; r++ {
		s.EpochBlock(ckpt.BlockRecord{
			Level: level, Step: step, Rank: r,
			Path: "ckpt/f", Offset: int64(r) * 100, Bytes: 100, Time: t,
		})
		s.EpochCommit(ckpt.CommitRecord{Level: level, Step: step, Rank: r, Blocks: 1, Time: t + 0.5})
	}
}

func TestEpochTwoPhaseSeal(t *testing.T) {
	l := NewLog(7, 4)
	s := l.StartSegment("ckpt/a000", 0, 0)

	// Phase 1 alone does not seal.
	for r := 0; r < 4; r++ {
		s.EpochBlock(ckpt.BlockRecord{Level: ckpt.LevelGlobal, Step: 1, Rank: r, Path: "ckpt/f", Offset: int64(r), Bytes: 10, Time: 1.0})
	}
	e := epoch(l, ckpt.LevelGlobal, 1)
	if e == nil || e.Sealed() {
		t.Fatalf("epoch sealed after phase 1 only: %+v", e)
	}
	// Three of four commits: still torn.
	for r := 0; r < 3; r++ {
		s.EpochCommit(ckpt.CommitRecord{Level: ckpt.LevelGlobal, Step: 1, Rank: r, Blocks: 1, Time: 2.0})
	}
	if e.Sealed() {
		t.Fatal("epoch sealed with a missing contributor")
	}
	// The last commit seals.
	s.EpochCommit(ckpt.CommitRecord{Level: ckpt.LevelGlobal, Step: 1, Rank: 3, Blocks: 1, Time: 2.5})
	if !e.Sealed() {
		t.Fatal("epoch not sealed after all commits")
	}
	if e.SealedAt != 2.5 {
		t.Fatalf("SealedAt = %v, want the max commit time 2.5", e.SealedAt)
	}

	// A lost record permanently tears, commutatively with commits.
	s2 := l.StartSegment("ckpt/a000", 0, 0)
	sealEpoch(s2, ckpt.LevelGlobal, 2, 4, 3.0)
	s2.EpochLost(ckpt.LostRecord{Level: ckpt.LevelGlobal, Step: 2, Rank: 1, Reason: "node down", Time: 3.2})
	e2 := epoch(l, ckpt.LevelGlobal, 2)
	if e2.Sealed() {
		t.Fatal("epoch with a lost rank must be torn")
	}
	if got := e2.LostRanks(); len(got) != 1 || !strings.Contains(got[0], "node down") {
		t.Fatalf("LostRanks = %v", got)
	}
}

func TestSegmentOffsetAndClose(t *testing.T) {
	l := NewLog(1, 2)
	s := l.StartSegment("ckpt/a003", 40, 3)
	sealEpoch(s, ckpt.LevelGlobal, 10, 2, 5.0)
	e := epoch(l, ckpt.LevelGlobal, 50)
	if e == nil {
		t.Fatal("segment offset not applied: no epoch at global step 50")
	}
	if e.LocalStep != 10 || e.Attempt != 3 || e.Dir != "ckpt/a003" {
		t.Fatalf("epoch identity = local %d attempt %d dir %q", e.LocalStep, e.Attempt, e.Dir)
	}

	// After Close, records from the (abandoned) world are dropped.
	s.Close()
	sealEpoch(s, ckpt.LevelGlobal, 20, 2, 6.0)
	if epoch(l, ckpt.LevelGlobal, 60) != nil {
		t.Fatal("closed segment still recorded an epoch")
	}
}

func TestManifestDeterministicAndVerify(t *testing.T) {
	build := func(seed uint64) (*Log, *Epoch, []byte) {
		l := NewLog(seed, 3)
		s := l.StartSegment("ckpt/a000", 0, 0)
		// Record in a scrambled rank order: the manifest must not care.
		for _, r := range []int{2, 0, 1} {
			s.EpochBlock(ckpt.BlockRecord{Level: ckpt.LevelGlobal, Step: 4, Rank: r, Path: "ckpt/f", Offset: int64(r) * 64, Bytes: 64, Time: 1})
			s.EpochCommit(ckpt.CommitRecord{Level: ckpt.LevelGlobal, Step: 4, Rank: r, Blocks: 1, Time: 2})
		}
		e := epoch(l, ckpt.LevelGlobal, 4)
		return l, e, l.Manifest(e)
	}
	l1, e1, m1 := build(9)
	_, _, m2 := build(9)
	if string(m1) != string(m2) {
		t.Fatal("manifest bytes differ across identical record sequences")
	}
	_, _, m3 := build(10)
	if string(m1) == string(m3) {
		t.Fatal("manifest checksum chain ignores the seed")
	}
	if !strings.HasPrefix(string(m1), "NEKMANIFEST v1 ") || !strings.Contains(string(m1), "END ") {
		t.Fatalf("manifest framing:\n%s", m1)
	}
	if err := l1.VerifyManifest(e1, m1); err != nil {
		t.Fatalf("verify of pristine manifest: %v", err)
	}
	corrupt := append([]byte(nil), m1...)
	corrupt[len(corrupt)/2] ^= 1
	if err := l1.VerifyManifest(e1, corrupt); err == nil {
		t.Fatal("verify accepted a corrupted manifest")
	}
	if err := l1.VerifyManifest(e1, m1[:len(m1)-1]); err == nil {
		t.Fatal("verify accepted a truncated manifest")
	}
}

// FuzzVerifyManifest feeds arbitrary bytes to VerifyManifest against a
// sealed epoch: the epoch's own manifest must verify, and every other byte
// string must be rejected with an error, never a panic.
func FuzzVerifyManifest(f *testing.F) {
	l := NewLog(9, 3)
	sealEpoch(l.StartSegment("ckpt/a000", 0, 0), ckpt.LevelGlobal, 4, 3, 1)
	e := epoch(l, ckpt.LevelGlobal, 4)
	m := l.Manifest(e)
	f.Add(m)
	f.Add(m[:len(m)-1])
	f.Add(append(append([]byte(nil), m...), '\n'))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		err := l.VerifyManifest(e, b)
		if ok := bytes.Equal(b, m); ok != (err == nil) {
			t.Fatalf("manifest match %v, verify error %v", ok, err)
		}
	})
}

func TestBufferLossTearsUnverifiedEpochs(t *testing.T) {
	l := NewLog(1, 2)
	s := l.StartSegment("ckpt/a000", 0, 0)
	sealEpoch(s, ckpt.LevelGlobal, 1, 2, 1.0) // seals at 1.5
	sealEpoch(s, ckpt.LevelGlobal, 2, 2, 2.0) // seals at 2.5
	verified := epoch(l, ckpt.LevelGlobal, 1)
	l.markVerified(verified)

	// Loss at t=3: both seals predate it, but the verified epoch's bytes
	// provably left the buffer tier.
	l.BufferLoss(3.0)
	if !verified.Sealed() {
		t.Fatal("verified epoch was invalidated by a later buffer loss")
	}
	e2 := epoch(l, ckpt.LevelGlobal, 2)
	if e2.Sealed() {
		t.Fatal("unverified epoch survived a buffer loss that may hold its bytes")
	}
	if e2.Invalid() == "" || l.Invalidated() != 1 {
		t.Fatalf("loss accounting: invalid=%q invalidated=%d", e2.Invalid(), l.Invalidated())
	}

	// Epochs sealed after the loss are untouched.
	sealEpoch(s, ckpt.LevelGlobal, 3, 2, 4.0)
	if !epoch(l, ckpt.LevelGlobal, 3).Sealed() {
		t.Fatal("epoch sealed after the loss must stay sealed")
	}
}

// TestNewestSealedLevels pins the rollback pick: the newest sealed epoch of
// the asked level, skipping a torn one and any sealed after the failure
// instant.
func TestNewestSealedLevels(t *testing.T) {
	l := NewLog(1, 2)
	s := l.StartSegment("ckpt/a000", 0, 0)
	sealEpoch(s, ckpt.LevelGlobal, 4, 2, 1.0)
	sealEpoch(s, ckpt.LevelLocal, 4, 2, 1.0)
	sealEpoch(s, ckpt.LevelLocal, 6, 2, 2.0)
	// The newest local epoch (step 8) is torn: one rank's RAM-disk write
	// was recorded lost.
	sealEpoch(s, ckpt.LevelLocal, 8, 2, 3.0)
	s.EpochLost(ckpt.LostRecord{Level: ckpt.LevelLocal, Step: 8, Rank: 0, Reason: "node down", Time: 3.1})

	if p := l.NewestSealed(ckpt.LevelLocal, 0); p == nil || p.Step != 6 {
		t.Fatalf("NewestSealed(local) skipped past the torn epoch wrong: %+v", p)
	}
	if g := l.NewestSealed(ckpt.LevelGlobal, 0); g == nil || g.Level != ckpt.LevelGlobal || g.Step != 4 {
		t.Fatalf("NewestSealed(global) = %+v, want the global step-4 epoch", g)
	}
	// A time bound excludes epochs sealed after the failure instant.
	if p := l.NewestSealed(ckpt.LevelLocal, 1.9); p == nil || p.Step != 4 {
		t.Fatalf("bounded pick = %+v, want local step 4", p)
	}
}

func TestLostRecordFirstReasonWins(t *testing.T) {
	l := NewLog(1, 2)
	s := l.StartSegment("d", 0, 0)
	s.EpochLost(ckpt.LostRecord{Level: ckpt.LevelGlobal, Step: 1, Rank: 0, Reason: "node down", Time: 1})
	s.EpochLost(ckpt.LostRecord{Level: ckpt.LevelGlobal, Step: 1, Rank: 0, Reason: "chunk missing", Time: 2})
	e := epoch(l, ckpt.LevelGlobal, 1)
	if got := e.LostRanks(); len(got) != 1 || !strings.Contains(got[0], "node down") {
		t.Fatalf("duplicate lost records not deduped first-wins: %v", got)
	}
}
