// Package recover closes the checkpoint/restart loop: it collects the
// two-phase epoch records the checkpoint strategies emit (ckpt.EpochSink),
// derives each epoch's seal status, materializes sealed epochs' manifest
// files for restart scans that pay real read traffic, and drives the full
// compute → checkpoint → fault → detect → roll back → re-execute lifecycle
// inside the DES kernel (driver.go).
//
// Determinism contract: recording an epoch costs zero simulated time and
// draws no random numbers — block checksums are pure hashes seeded from the
// experiment seed, never from the machine's RNG streams — and a sealed
// epoch's manifest is folded into its final commit (the bytes only
// materialize lazily when a scanner reads them). Fault-free runs with the
// manifest layer on are therefore byte-identical to runs without it, pinned
// by the golden-identity tests.
package recover

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/ckpt"
	"repro/internal/xrand"
)

// Block is one data block of an epoch, as recorded in its manifest.
type Block struct {
	Rank   int
	Path   string
	Offset int64
	Bytes  int64
	Sum    uint64
}

// Epoch is the integrity state of one checkpoint step at one level. Step is
// the lifecycle-global step (segment offset + the step inside the segment's
// world); LocalStep and Dir locate the actual files of the attempt that
// wrote it.
type Epoch struct {
	Level     ckpt.Level
	Step      int64
	LocalStep int64
	Attempt   int
	Dir       string
	Expected  int // contributors required to seal (the job's np)

	Blocks    []Block
	committed map[int]float64 // rank -> commit time
	lost      map[int]string  // rank -> reason

	FirstBlockAt float64 // first phase-1 record
	LastAt       float64 // latest record of any kind
	SealedAt     float64 // max commit time; meaningful only when sealed

	invalid  string // non-empty: externally invalidated (e.g. bbuf loss)
	verified bool   // a scan read this epoch's manifest back successfully
}

// Sealed reports whether the epoch's two-phase commit completed: every
// expected contributor committed, nothing was recorded lost, and no later
// event (a burst-buffer loss) invalidated it. The predicate is pure and
// commutative in record arrival order.
func (e *Epoch) Sealed() bool {
	return len(e.committed) == e.Expected && len(e.lost) == 0 && e.invalid == ""
}

// Torn reports the opposite of Sealed for an epoch that was at least
// started: a restart scanner must not trust its bytes.
func (e *Epoch) Torn() bool { return !e.Sealed() }

// Lost returns the ranks recorded lost, sorted, with reasons.
func (e *Epoch) LostRanks() []string {
	out := make([]string, 0, len(e.lost))
	ranks := make([]int, 0, len(e.lost))
	for r := range e.lost {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	for _, r := range ranks {
		out = append(out, fmt.Sprintf("rank %d: %s", r, e.lost[r]))
	}
	return out
}

// Invalid returns the invalidation reason ("" when none).
func (e *Epoch) Invalid() string { return e.invalid }

// ManifestPath names the epoch's manifest file, in the attempt directory
// next to the step's data files.
func (e *Epoch) ManifestPath() string {
	return fmt.Sprintf("%s/manifest.step%06d.mf", e.Dir, e.LocalStep)
}

// Log accumulates epoch records across a job's whole lifecycle (all
// segments and restart attempts) and answers seal/rollback queries. It
// implements nothing directly — strategies write through per-segment
// Segment sinks so records from an abandoned (crashed) world cannot leak
// into a later attempt's step numbering.
type Log struct {
	mu       sync.Mutex
	seed     uint64
	expected int
	epochs   map[epochKey]*Epoch

	invalidated int

	// gate, when set, maps a strategy-reported commit time to the durable
	// commit time (SetCommitGate).
	gate func(t float64) float64
}

type epochKey struct {
	level ckpt.Level
	step  int64
}

// NewLog creates a lifecycle log: expected is the number of contributors
// (ranks) required to seal each epoch; seed drives the pure block-checksum
// hash.
func NewLog(seed uint64, expected int) *Log {
	return &Log{seed: seed, expected: expected, epochs: map[epochKey]*Epoch{}}
}

// Segment opens a recording window for one launched world: local steps are
// offset into lifecycle-global steps, and records arriving after Close —
// from a world that logically crashed but is still draining on the kernel —
// are dropped.
type Segment struct {
	l       *Log
	dir     string
	offset  int64
	attempt int
	closed  bool
}

var _ ckpt.EpochSink = (*Segment)(nil)

// StartSegment opens the sink for a world whose checkpoint dir is dir and
// whose local step 0 corresponds to lifecycle step offset.
func (l *Log) StartSegment(dir string, offset int64, attempt int) *Segment {
	return &Segment{l: l, dir: dir, offset: offset, attempt: attempt}
}

// Close drops all further records from this segment's world.
func (s *Segment) Close() {
	s.l.mu.Lock()
	s.closed = true
	s.l.mu.Unlock()
}

func (s *Segment) epoch(level ckpt.Level, localStep int64) *Epoch {
	l := s.l
	key := epochKey{level, s.offset + localStep}
	e, ok := l.epochs[key]
	if !ok {
		e = &Epoch{
			Level: level, Step: key.step, LocalStep: localStep,
			Attempt: s.attempt, Dir: s.dir, Expected: l.expected,
			committed: map[int]float64{}, lost: map[int]string{},
			FirstBlockAt: -1,
		}
		l.epochs[key] = e
	}
	return e
}

// EpochBlock implements ckpt.EpochSink (phase 1).
func (s *Segment) EpochBlock(rec ckpt.BlockRecord) {
	s.l.mu.Lock()
	defer s.l.mu.Unlock()
	if s.closed {
		return
	}
	e := s.epoch(rec.Level, rec.Step)
	e.Blocks = append(e.Blocks, Block{
		Rank: rec.Rank, Path: rec.Path, Offset: rec.Offset, Bytes: rec.Bytes,
		Sum: blockSum(s.l.seed, rec),
	})
	if e.FirstBlockAt < 0 || rec.Time < e.FirstBlockAt {
		e.FirstBlockAt = rec.Time
	}
	if rec.Time > e.LastAt {
		e.LastAt = rec.Time
	}
}

// EpochCommit implements ckpt.EpochSink (phase 2). A commit gate, when
// installed, raises the recorded time to the durable point — on a
// burst-buffer backend the strategy's Sync returns at absorption, and the
// epoch must not count as sealed until the fleet has drained it.
func (s *Segment) EpochCommit(rec ckpt.CommitRecord) {
	s.l.mu.Lock()
	defer s.l.mu.Unlock()
	if s.closed {
		return
	}
	t := rec.Time
	if s.l.gate != nil {
		if g := s.l.gate(t); g > t {
			t = g
		}
	}
	e := s.epoch(rec.Level, rec.Step)
	e.committed[rec.Rank] = t
	if t > e.SealedAt {
		e.SealedAt = t
	}
	if t > e.LastAt {
		e.LastAt = t
	}
}

// EpochLost implements ckpt.EpochSink: a lost record permanently tears the
// epoch (the first reason per rank is kept).
func (s *Segment) EpochLost(rec ckpt.LostRecord) {
	s.l.mu.Lock()
	defer s.l.mu.Unlock()
	if s.closed {
		return
	}
	e := s.epoch(rec.Level, rec.Step)
	if _, dup := e.lost[rec.Rank]; !dup {
		e.lost[rec.Rank] = rec.Reason
	}
	if rec.Time > e.LastAt {
		e.LastAt = rec.Time
	}
}

// blockSum is the seeded per-block checksum: a pure splitmix64 chain over
// the block's identity, so recording draws nothing from any RNG stream.
func blockSum(seed uint64, rec ckpt.BlockRecord) uint64 {
	h := xrand.Hash64(seed ^ uint64(rec.Step)<<8 ^ uint64(rec.Level))
	h = xrand.Hash64(h ^ uint64(rec.Rank))
	h = xrand.Hash64(h ^ uint64(rec.Offset))
	h = xrand.Hash64(h ^ uint64(rec.Bytes))
	for i := 0; i < len(rec.Path); i++ {
		h = h<<7 | h>>57
		h ^= uint64(rec.Path[i])
	}
	return xrand.Hash64(h)
}

// BufferLoss invalidates epochs whose durability silently evaporated: when
// a burst buffer loses absorbed-but-undrained bytes at time t, every sealed
// epoch whose seal predates t and that no scan has verified readable is
// conservatively torn (its data may have been in the lost buffer). Epochs a
// scan already read back through the servers are immune — their bytes
// provably left the buffer tier.
func (l *Log) BufferLoss(t float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, e := range l.epochs {
		if e.Level != ckpt.LevelGlobal || e.verified || e.invalid != "" {
			continue
		}
		// Sealed before the loss: its bytes may have sat in the lost
		// buffer. Also torn conservatively: an epoch still in flight whose
		// writes started before the loss — with drain-deferred seals
		// (SetCommitGate) a fully-written epoch's seal can postdate the
		// loss precisely because its bytes were still in the fleet, which
		// is exactly the data the loss took.
		sealedBefore := len(e.committed) > 0 && e.SealedAt <= t
		inFlight := !e.Sealed() && e.FirstBlockAt >= 0 && e.FirstBlockAt <= t
		if sealedBefore || inFlight {
			e.invalid = fmt.Sprintf("burst-buffer loss at t=%.3f", t)
			l.invalidated++
		}
	}
}

// SetCommitGate installs a durability gate on epoch commits: every
// EpochCommit's reported time is raised to gate(t) before it counts toward
// the epoch's seal. Burst-buffer backends supply their drain horizon here,
// so an epoch seals only once the fleet is expected to have drained it —
// the staging tier stops silently counting as durable storage. The gate
// must be pure bookkeeping: no simulated-time charge, no RNG draws.
func (l *Log) SetCommitGate(gate func(t float64) float64) {
	l.mu.Lock()
	l.gate = gate
	l.mu.Unlock()
}

// Invalidated returns how many epochs BufferLoss tore.
func (l *Log) Invalidated() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.invalidated
}

// Epochs returns the level's epochs sorted by ascending step.
func (l *Log) Epochs(level ckpt.Level) []*Epoch {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []*Epoch
	for k, e := range l.epochs {
		if k.level == level {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Step < out[j].Step })
	return out
}

// NewestSealed returns the newest sealed epoch of the level whose seal
// predates before (before <= 0: no bound), or nil.
func (l *Log) NewestSealed(level ckpt.Level, before float64) *Epoch {
	es := l.Epochs(level)
	for i := len(es) - 1; i >= 0; i-- {
		e := es[i]
		if !e.Sealed() {
			continue
		}
		if before > 0 && e.SealedAt > before {
			continue
		}
		return e
	}
	return nil
}

// StalenessAt reports how stale the job's durable state is at time t: the
// gap between t and the seal of the newest epoch of the level sealed at or
// before t — the work a failure at t rolls back. With no epoch sealed yet,
// everything since t=0 is at risk. This is the quantity an asynchronous
// strategy trades against blocked time: the solver unblocks early, but the
// epoch only seals when the background flush lands, so the staleness at a
// badly-timed failure grows by the flush lag.
func (l *Log) StalenessAt(level ckpt.Level, t float64) float64 {
	e := l.NewestSealed(level, t)
	if e == nil {
		return t
	}
	return t - e.SealedAt
}

// Manifest renders the epoch's deterministic manifest bytes: a header line,
// one line per block sorted by (rank, path, offset), and a trailer carrying
// the epoch checksum (a pure hash chain over the block sums). These are the
// bytes the final commit of the two-phase protocol seals; scanners read
// them back through the storage stack.
func (l *Log) Manifest(e *Epoch) []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	blocks := append([]Block(nil), e.Blocks...)
	sort.Slice(blocks, func(i, j int) bool {
		a, b := blocks[i], blocks[j]
		if a.Rank != b.Rank {
			return a.Rank < b.Rank
		}
		if a.Path != b.Path {
			return a.Path < b.Path
		}
		return a.Offset < b.Offset
	})
	var out []byte
	out = append(out, fmt.Sprintf("NEKMANIFEST v1 level=%s step=%d local=%d attempt=%d ranks=%d blocks=%d\n",
		e.Level, e.Step, e.LocalStep, e.Attempt, len(e.committed), len(blocks))...)
	sum := xrand.Hash64(l.seed ^ uint64(e.Step))
	for _, b := range blocks {
		out = append(out, fmt.Sprintf("%d %s %d %d %016x\n", b.Rank, b.Path, b.Offset, b.Bytes, b.Sum)...)
		sum = xrand.Hash64(sum ^ b.Sum)
	}
	out = append(out, fmt.Sprintf("END %016x\n", sum)...)
	return out
}

// VerifyManifest recomputes the epoch checksum chain over manifest bytes
// previously produced by Manifest and reports whether it matches the
// trailer. A scanner calls this after reading the bytes back through the
// storage stack.
func (l *Log) VerifyManifest(e *Epoch, contents []byte) error {
	want := l.Manifest(e)
	if len(contents) != len(want) {
		return fmt.Errorf("recover: manifest %s: %d bytes, want %d", e.ManifestPath(), len(contents), len(want))
	}
	for i := range contents {
		if contents[i] != want[i] {
			return fmt.Errorf("recover: manifest %s: corrupt at byte %d", e.ManifestPath(), i)
		}
	}
	return nil
}

// markVerified records that a scan read the epoch back successfully; a
// verified epoch is immune to later conservative invalidation.
func (l *Log) markVerified(e *Epoch) {
	l.mu.Lock()
	e.verified = true
	l.mu.Unlock()
}
