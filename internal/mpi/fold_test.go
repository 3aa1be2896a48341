package mpi

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/bgp"
	"repro/internal/data"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// Folded waits (DESIGN §5): Barrier and AllgatherInt64Pair each wait
// through two back-to-back wakes with one resume of the rank, and
// IsendWaitSeq and RecvSeq through a whole run of sends or receives. These
// tests check each against the unfolded sequence it replaces: every
// result, time, event, span and counter must be equal; only Woken moves.

// foldRun is what one run of a fold scenario produced.
type foldRun struct {
	log    string // per-rank results and return times
	trace  string // every span, then the metrics table (counters, attribution)
	events uint64
	woken  uint64
}

// foldBody is one rank's part of a fold scenario on the communicator c of
// the world's first np ranks; ranks outside it see c.Rank(r) < 0.
type foldBody func(c *Comm, r *Rank, log rankLog)

// runFold runs body on every rank of a traced ranks-rank Intrepid world,
// serial (workers 0) or partitioned with that many lane workers.
func runFold(t *testing.T, ranks, workers, np int, body foldBody) foldRun {
	t.Helper()
	k := sim.NewKernel()
	rec := trace.NewRecorder()
	k.SetRecorder(rec)
	m := machine.MustNew(k, xrand.New(1), bgp.Intrepid(ranks))
	if workers > 0 {
		k.EnableSharding(m.NumPsets(), workers, Lookahead(m), 1)
	}
	w := NewWorld(m, DefaultConfig())
	c := subComm(w, np)
	log := make(rankLog, ranks)
	if err := w.Run(func(_ *Comm, r *Rank) { body(c, r, log) }); err != nil {
		t.Fatal(err)
	}
	var spans []string
	for _, ev := range rec.Events() {
		if ev.Kind == trace.KindSpan {
			spans = append(spans, fmt.Sprintf("%s rank %d at %v for %v, %v bytes", ev.Name, ev.Track, ev.T, ev.Dur, ev.Value))
		}
	}
	if workers > 0 {
		// Lane recorders merge in no particular order.
		sort.Strings(spans)
	}
	return foldRun{
		log:    log.String(),
		trace:  strings.Join(spans, "\n") + "\n" + rec.Snapshot("", k.Now()).Table(),
		events: k.Events(),
		woken:  k.Woken(),
	}
}

// assertFoldMatches requires the folded run to match the unfolded one in
// everything but Woken, and returns the resumes the fold saved.
func assertFoldMatches(t *testing.T, name string, ref, got foldRun) uint64 {
	t.Helper()
	if got.log != ref.log {
		t.Fatalf("%s: results differ from the unfolded reference:\n%s\nwant\n%s", name, got.log, ref.log)
	}
	if got.trace != ref.trace {
		t.Fatalf("%s: trace differs from the unfolded reference:\n%s\nwant\n%s", name, got.trace, ref.trace)
	}
	if got.events != ref.events {
		t.Fatalf("%s: %d events, unfolded reference %d", name, got.events, ref.events)
	}
	if got.woken > ref.woken {
		t.Fatalf("%s: %d resumes, more than the unfolded reference's %d", name, got.woken, ref.woken)
	}
	return ref.woken - got.woken
}

// refBarrier is the unfolded barrier: the waiters wake at the release and
// then sleep through the barrier network's latency themselves.
func refBarrier(c *Comm, r *Rank) {
	n := len(c.members)
	if n == 1 {
		return
	}
	prev, t0 := r.proc.Enter(trace.LayerMPI)
	key := collKey{parent: c.id, seq: bump(&r.collSeq, c.id)}
	c.enter(r)
	reg := c.w.regFor(c)
	st, ok := reg.barriers[key]
	if !ok {
		st = &barrierState{}
		reg.barriers[key] = st
	}
	st.arrived++
	if st.arrived == n {
		delete(reg.barriers, key)
		st.done.Fire()
	} else {
		st.done.Wait(r.proc)
	}
	r.proc.Sleep(HWBarrierLatency)
	c.exit(r)
	r.proc.Leave(prev, trace.LayerMPI, "mpi.barrier", r.id, t0, 0)
}

// barrierScenario runs rounds of barriers on the group with point-to-point
// traffic between its ranks: ranks enter each barrier at times
// skewed by their message sizes (some of them tied), so the release finds
// the calendar busy.
func barrierScenario(barrier func(c *Comm, r *Rank)) foldBody {
	return func(c *Comm, r *Rank, log rankLog) {
		me, np := c.Rank(r), c.Size()
		if me < 0 {
			return
		}
		for round := 1; round <= 3; round++ {
			req := c.Isend(r, (me+1)%np, round, data.Synthetic(int64(64<<(2*((me*round)%5)))))
			req.Wait(r.Proc())
			c.Recv(r, (me+np-1)%np, round)
			barrier(c, r)
			log.add(r, 0, "released from barrier %d", round)
		}
	}
}

// TestBarrierFoldMatchesUnfolded checks the folded barrier against
// Signal.Wait plus Sleep(HWBarrierLatency) on the serial kernel: equal
// release times, events, spans and counters. Ranks arrive one at a time and
// an extra rank wakes halfway through every release latency, so no rank's
// resume follows straight on its own yield in either run, and the fold
// saves exactly the waiters' release wakes: n-1 per barrier.
func TestBarrierFoldMatchesUnfolded(t *testing.T) {
	const ranks, rounds = 1024, 4
	for _, np := range []int{2, 3, 64} {
		staggered := func(barrier func(c *Comm, r *Rank)) foldBody {
			return func(c *Comm, r *Rank, log rankLog) {
				me := c.Rank(r)
				if me < 0 && r.ID() != np {
					return
				}
				for round := 0; round < rounds; round++ {
					last := float64(round)*1e-3 + float64(np-1)*1e-6 // the last arrival
					if me < 0 {
						r.Proc().SleepUntil(last + HWBarrierLatency/2)
						continue
					}
					r.Proc().SleepUntil(float64(round)*1e-3 + float64(me)*1e-6)
					barrier(c, r)
					log.add(r, 0, "released at %v after the last arrival", r.Now()-last)
				}
			}
		}
		ref := runFold(t, ranks, 0, np, staggered(refBarrier))
		got := runFold(t, ranks, 0, np, staggered((*Comm).Barrier))
		name := fmt.Sprintf("staggered np=%d", np)
		if saved := assertFoldMatches(t, name, ref, got); saved != uint64(rounds*(np-1)) {
			t.Errorf("%s: the fold saved %d resumes, want %d (n-1 per barrier)", name, saved, rounds*(np-1))
		}

		name = fmt.Sprintf("with traffic np=%d", np)
		ref = runFold(t, ranks, 0, np, barrierScenario(refBarrier))
		got = runFold(t, ranks, 0, np, barrierScenario((*Comm).Barrier))
		if saved := assertFoldMatches(t, name, ref, got); saved < uint64(3*(np-1)) {
			t.Errorf("%s: the fold saved %d resumes, want at least %d (n-1 per barrier)", name, saved, 3*(np-1))
		}
	}
}

// TestBarrierFoldShardedMatchesUnfolded checks the folded barrier on the
// partitioned kernel: one group confined to a pset (its wakes run on the
// pset's lane) and the world communicator, which spans every pset, so its
// waiters stay in their shared section and both wakes run on the exclusive
// lane. The folded run must match the unfolded one, and every partitioned
// run the serial one.
func TestBarrierFoldShardedMatchesUnfolded(t *testing.T) {
	const ranks = 1024
	for _, np := range []int{64, ranks} {
		var ref, got foldRun
		assertShardedMatchesSerial(t, func(workers int) string {
			ref = runFold(t, ranks, workers, np, barrierScenario(refBarrier))
			got = runFold(t, ranks, workers, np, barrierScenario((*Comm).Barrier))
			assertFoldMatches(t, fmt.Sprintf("np=%d workers=%d", np, workers), ref, got)
			return got.log
		})
	}
}

// pairScenario runs AllgatherInt64Pair — or the two AllgatherInt64 calls it
// replaces — between point-to-point traffic whose messages land mid-call,
// and then an AllgatherInt64 and a Bcast, which must still find their tags
// and messages in step.
func pairScenario(pair bool) foldBody {
	return func(c *Comm, r *Rank, log rankLog) {
		me, np := c.Rank(r), c.Size()
		if me < 0 {
			return
		}
		right, left := (me+1)%np, (me+np-1)%np
		for step := 1; step <= 2; step++ {
			req := c.Isend(r, right, step, data.Synthetic(int64(64<<(2*((me*step)%7)))))
			req.Wait(r.Proc())
			var as, bs []int64
			if pair {
				as, bs = c.AllgatherInt64Pair(r, int64(3*me+step), int64(me*me))
			} else {
				as = c.AllgatherInt64(r, int64(3*me+step))
				bs = c.AllgatherInt64(r, int64(me*me))
			}
			log.add(r, 0, "pair %v %v", as, bs)
			buf, src := c.Recv(r, left, step)
			log.add(r, 0, "p2p %d bytes from %d", buf.Len(), src)
		}
		log.add(r, 0, "allgather %v", c.AllgatherInt64(r, int64(me%5)))
		var buf data.Buf
		if me == np-1 {
			buf = data.FromBytes([]byte("after the pair"))
		}
		log.add(r, 0, "bcast %q", c.Bcast(r, np-1, buf).Bytes())
	}
}

// TestAllgatherPairMatchesTwoAllgathers checks AllgatherInt64Pair against
// two AllgatherInt64 calls: equal results, return times, events, spans and
// mpi.msgs/mpi.bytes, and the collectives that follow still match. The
// pair saves a resume per rank per call.
func TestAllgatherPairMatchesTwoAllgathers(t *testing.T) {
	const ranks = 1024
	for _, tc := range []struct{ np, workers int }{
		{2, 0}, {3, 0}, {64, 0}, {100, 0}, {64, 2}, {ranks, 2},
	} {
		name := fmt.Sprintf("np=%d workers=%d", tc.np, tc.workers)
		ref := runFold(t, ranks, tc.workers, tc.np, pairScenario(false))
		got := runFold(t, ranks, tc.workers, tc.np, pairScenario(true))
		assertFoldMatches(t, name, ref, got)
		if tc.workers == 0 && ref.woken-got.woken < uint64(2*tc.np) {
			t.Errorf("%s: the pair saved %d resumes, want at least one per rank per call (%d)", name, ref.woken-got.woken, 2*tc.np)
		}
	}
}

// logSends is a SendSeq shipping sizes[i] bytes with tag i and logging
// each send's start and local time, as the reference loop logs them.
type logSends struct {
	log   rankLog
	sizes []int64
}

func (s *logSends) SendMsg(_ *Rank, i int) (int, data.Buf) { return i, data.Synthetic(s.sizes[i]) }

func (s *logSends) Sent(r *Rank, i int, start, local float64) { logSent(s.log, r, i, start, local) }

func logSent(log rankLog, r *Rank, i int, start, local float64) {
	log.add(r, 0, "send %d from %v: local time %v", i, start, local)
}

// sendAll ships sizes to communicator rank to: as one IsendWaitSeq, or as
// the loop of Isend then Wait it replaces.
func sendAll(folded bool, c *Comm, r *Rank, to int, sizes []int64, log rankLog) {
	if folded {
		c.IsendWaitSeq(r, to, len(sizes), &logSends{log: log, sizes: sizes})
		return
	}
	for i, n := range sizes {
		start := r.Now()
		req := c.Isend(r, to, i, data.Synthetic(n))
		req.Wait(r.Proc())
		logSent(log, r, i, start, req.LocalTime())
	}
}

// sendScenario ships n fields the way an rbIO worker does — one
// IsendWaitSeq, or Isend then Wait per field — from every rank of a group
// of np to the next rank of the group, dst ranks apart. Sizes vary by rank
// and include empty sends, which complete locally at the overhead's end,
// and back-to-back sends serialize on the messaging pipeline. All ranks
// call at once, so neither wait can take Sleep's fast path.
func sendScenario(folded bool, np, dst, n int) foldBody {
	return func(c *Comm, r *Rank, log rankLog) {
		me := c.Rank(r)
		if me >= np*dst || me%dst != 0 {
			return
		}
		sizes := make([]int64, n)
		for field := range sizes {
			sizes[field] = int64(400 << 10 >> (2 * ((me/dst + field) % 4)))
			if (me/dst+field)%5 == 4 {
				sizes[field] = 0
			}
		}
		sendAll(folded, c, r, (me+dst)%(np*dst), sizes, log)
		for field := 0; field < n; field++ {
			buf, src := c.Recv(r, (me+(np-1)*dst)%(np*dst), field)
			log.add(r, 0, "got %d bytes from %d", buf.Len(), src)
		}
	}
}

// loneSender has rank 0 send three fields to rank 512 back to back once
// every other rank has ended. Nothing else is due before the first
// message lands, so Sleep's fast path applies to every overhead and every
// wait. mode 0 sends nothing, 1 is Isend then Wait, 2 is IsendWaitSeq.
func loneSender(mode int) foldBody {
	return func(c *Comm, r *Rank, log rankLog) {
		if c.Rank(r) != 0 {
			return
		}
		r.Proc().SleepUntil(1e-3)
		if mode > 0 {
			sendAll(mode == 2, c, r, 512, []int64{400 << 10, 400 << 6, 400 << 2}, log)
		}
	}
}

// TestIsendWaitMatchesIsendThenWait checks IsendWaitSeq against a loop of
// Isend then Wait, with Sleep's fast path taken (a lone sender) and not (a
// group whose ranks all call at once), for sequences of one send and of
// three: equal local times, return times, events, and the mpi.isend and
// mpi.wait spans both recorded, equal.
func TestIsendWaitMatchesIsendThenWait(t *testing.T) {
	const ranks = 1024
	ref := runFold(t, ranks, 0, ranks, loneSender(1))
	got := runFold(t, ranks, 0, ranks, loneSender(2))
	assertFoldMatches(t, "lone sender", ref, got)
	if idle := runFold(t, ranks, 0, ranks, loneSender(0)); got.events != idle.events+3 || got.woken != idle.woken {
		t.Errorf("lone sender: %d events and %d resumes, want the idle run's %d plus the 3 deliveries and its %d: the fast path schedules nothing",
			got.events, got.woken, idle.events, idle.woken)
	}
	for _, n := range []int{1, 3} {
		for _, np := range []int{2, 3, 64} {
			name := fmt.Sprintf("np=%d n=%d", np, n)
			ref = runFold(t, ranks, 0, ranks, sendScenario(false, np, 1, n))
			got = runFold(t, ranks, 0, ranks, sendScenario(true, np, 1, n))
			if saved := assertFoldMatches(t, name, ref, got); saved == 0 {
				t.Errorf("%s: the fold saved no resume", name)
			}
		}
	}
	for _, span := range []string{"mpi.isend rank", "mpi.wait rank"} {
		if !strings.Contains(got.trace, span) {
			t.Errorf("no %s span", span)
		}
	}
}

// TestIsendWaitShardedMatchesIsendThenWait runs the comparison on the
// partitioned kernel, with sends inside a pset (on its lane) and sends 300
// ranks apart, which cross psets and need a shared section: the sequence
// resumes the process to enter it, and the rest of the send runs as the
// continuation on the exclusive lane, where the rank's own code would have.
func TestIsendWaitShardedMatchesIsendThenWait(t *testing.T) {
	const ranks = 1024
	for _, dst := range []int{1, 300} {
		for _, n := range []int{1, 3} {
			assertShardedMatchesSerial(t, func(workers int) string {
				ref := runFold(t, ranks, workers, ranks, sendScenario(false, 3, dst, n))
				got := runFold(t, ranks, workers, ranks, sendScenario(true, 3, dst, n))
				assertFoldMatches(t, fmt.Sprintf("dst=%d n=%d workers=%d", dst, n, workers), ref, got)
				return got.log
			})
		}
	}
}

// recvStep is one receive of a RecvSeq scenario: field from member k.
type recvStep struct {
	k, field int
	timeout  float64
}

// logRecvs is a RecvSeq over steps on a group whose members sit gap ranks
// apart. It logs each result as the reference loop does and stops after
// stop results, when stop > 0.
type logRecvs struct {
	log   rankLog
	gap   int
	steps []recvStep
	i     int
	stop  int
}

func (s *logRecvs) NextRecv(*Rank) (int, int, float64, bool) {
	if s.i == len(s.steps) || s.stop > 0 && s.i == s.stop {
		return 0, 0, 0, false
	}
	st := s.steps[s.i]
	return st.k * s.gap, st.field, st.timeout, true
}

func (s *logRecvs) Recvd(r *Rank, start float64, buf data.Buf, ok bool) {
	logRecvd(s.log, r, s.steps[s.i], start, buf, ok)
	s.i++
}

func logRecvd(log rankLog, r *Rank, st recvStep, start float64, buf data.Buf, ok bool) {
	log.add(r, 0, "field %d from member %d, posted at %v: %d bytes, ok %v", st.field, st.k, start, buf.Len(), ok)
}

// recvAll takes steps: as one RecvSeq, or as the loop of receives it
// replaces, each a blocking Recv or, with a deadline, a one-receive
// RecvSeq. It stops after stop receives when stop > 0 and returns the steps
// not taken.
func recvAll(folded bool, c *Comm, r *Rank, gap int, steps []recvStep, stop int, log rankLog) []recvStep {
	if folded {
		seq := &logRecvs{log: log, gap: gap, steps: steps, stop: stop}
		c.RecvSeq(r, seq)
		return steps[seq.i:]
	}
	for i, st := range steps {
		if stop > 0 && i == stop {
			return steps[i:]
		}
		start := r.Now()
		buf, ok := data.Buf{}, true
		if st.timeout < 0 {
			buf, _ = c.Recv(r, st.k*gap, st.field)
		} else {
			buf, ok = recvOne(c, r, st.k*gap, st.field, st.timeout)
		}
		logRecvd(log, r, st, start, buf, ok)
	}
	return nil
}

// recvScenario has member 0 of a group of np ranks, gap ranks apart, take
// three fields from every other member the way an rbIO writer does — one
// RecvSeq per phase, or the loop of receives each replaces — while the
// members send them with Isend then Wait:
//   - field 0 with a 1 ms deadline per receive. Member k sends at k·20 µs,
//     so the writer's receives are posted before their messages arrive or
//     find them waiting. Member 2 sends at 0.6 ms, and its message beats
//     the deadline. The last member (when np > 3) never sends, and its
//     deadline expires. Every receive that completes leaves a stale timer.
//   - field 1, sent right after field 0, with the same deadline. Its
//     messages wait in the inbox, while other ranks' events and the stale
//     timers keep Sleep's fast path from applying.
//   - field 2, taken after every other rank ended, when the inbox hits
//     take the fast path, in a sequence that stops after two receives and
//     one that takes the rest.
func recvScenario(folded bool, np, gap int) foldBody {
	const deadline = 1e-3
	return func(c *Comm, r *Rank, log rankLog) {
		me := c.Rank(r)
		if me >= np*gap || me%gap != 0 {
			return
		}
		k := me / gap
		if k != 0 {
			p := r.Proc()
			for field := 0; field < 3; field++ {
				if field == 0 && np > 3 && k == np-1 {
					continue
				}
				if field == 0 {
					p.SleepUntil(float64(k) * 20e-6)
					if k == 2 {
						p.SleepUntil(0.6e-3)
					}
				}
				size := int64(400 << 10 >> (2 * ((k + field) % 4)))
				if (k+field)%5 == 4 {
					size = 0
				}
				c.Isend(r, 0, field, data.Synthetic(size)).Wait(p)
			}
			return
		}
		var steps [3][]recvStep
		for field := range steps {
			for k := 1; k < np; k++ {
				st := recvStep{k: k, field: field, timeout: -1}
				if field < 2 {
					st.timeout = deadline
				}
				steps[field] = append(steps[field], st)
			}
		}
		recvAll(folded, c, r, gap, steps[0], 0, log)
		recvAll(folded, c, r, gap, steps[1], 0, log)
		r.Proc().SleepUntil(10e-3)
		rest := recvAll(folded, c, r, gap, steps[2], 2, log)
		recvAll(folded, c, r, gap, rest, 0, log)
	}
}

// TestRecvSeqMatchesRecvLoop checks RecvSeq against a loop of receives
// (Recv, or one-receive sequences with the same deadlines) on the serial
// kernel:
// posted receives, inbox hits with and without Sleep's fast path,
// deadlines that expire and ones the message beats, stale timers, and a
// sequence that stops early. Results, return times, events, spans and
// counters are equal, and the sequence saves resumes.
func TestRecvSeqMatchesRecvLoop(t *testing.T) {
	const ranks = 1024
	for _, np := range []int{2, 3, 5, 64} {
		name := fmt.Sprintf("np=%d", np)
		ref := runFold(t, ranks, 0, ranks, recvScenario(false, np, 1))
		got := runFold(t, ranks, 0, ranks, recvScenario(true, np, 1))
		saved := assertFoldMatches(t, name, ref, got)
		if np > 2 && saved == 0 {
			t.Errorf("%s: the sequence saved no resume", name)
		}
		for _, want := range []string{"mpi.recv rank 0", "ok false", "ok true"} {
			if np > 3 && !strings.Contains(got.trace+got.log, want) {
				t.Errorf("%s: no %q in the run", name, want)
			}
		}
		if np > 3 && !strings.Contains(got.trace, "mpi.recv.timeout rank 0") {
			t.Errorf("%s: no deadline expired", name)
		}
	}
}

// TestRecvSeqShardedMatchesRecvLoop runs the comparison on the partitioned
// kernel: a group inside one pset, and one whose members sit 300 ranks
// apart, so every send crosses psets in a shared section and the delivery
// wakes the writer from the exclusive lane.
func TestRecvSeqShardedMatchesRecvLoop(t *testing.T) {
	const ranks = 1024
	for _, tc := range []struct{ np, gap int }{{64, 1}, {4, 300}} {
		assertShardedMatchesSerial(t, func(workers int) string {
			ref := runFold(t, ranks, workers, ranks, recvScenario(false, tc.np, tc.gap))
			got := runFold(t, ranks, workers, ranks, recvScenario(true, tc.np, tc.gap))
			name := fmt.Sprintf("np=%d gap=%d workers=%d", tc.np, tc.gap, workers)
			if saved := assertFoldMatches(t, name, ref, got); saved == 0 {
				t.Errorf("%s: the sequence saved no resume", name)
			}
			return got.log
		})
	}
}
