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

// Folded waits (DESIGN §5): Barrier, AllgatherInt64Pair and IsendWait each
// wait through two back-to-back wakes with one resume of the rank. These
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
	prev, t0 := r.opBegin()
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
	if r.w.rec != nil {
		r.proc.Rec().Span(trace.LayerMPI, "mpi.barrier", r.id, t0, r.Now(), 0)
		r.w.K.SetLayer(prev)
	}
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

// sendScenario ships fields the way an rbIO worker does — IsendWait, or
// Isend then Wait — from every rank of a group of np to the next rank of
// the group, dst ranks apart, and logs each call's local time. Sizes vary
// by rank and include empty sends, which complete locally at the
// overhead's end, and back-to-back sends serialize on the messaging
// pipeline. All ranks call at once, so neither wait can take Sleep's fast
// path.
func sendScenario(folded bool, np, dst int) foldBody {
	return func(c *Comm, r *Rank, log rankLog) {
		me := c.Rank(r)
		if me >= np*dst || me%dst != 0 {
			return
		}
		to := (me + dst) % (np * dst)
		for field := 0; field < 3; field++ {
			size := int64(400 << 10 >> (2 * ((me/dst + field) % 4)))
			if (me/dst+field)%5 == 4 {
				size = 0
			}
			buf := data.Synthetic(size)
			var local float64
			if folded {
				local = c.IsendWait(r, to, field, buf)
			} else {
				req := c.Isend(r, to, field, buf)
				req.Wait(r.Proc())
				local = req.LocalTime()
			}
			log.add(r, 0, "field %d: local time %v", field, local)
		}
		for field := 0; field < 3; field++ {
			buf, src := c.Recv(r, (me+(np-1)*dst)%(np*dst), field)
			log.add(r, 0, "got %d bytes from %d", buf.Len(), src)
		}
	}
}

// loneSender has rank 0 send three fields to rank 512 back to back once
// every other rank has ended. Nothing else is due before the first
// message lands, so Sleep's fast path applies to every overhead and every
// wait. mode 0 sends nothing, 1 is Isend then Wait, 2 is IsendWait.
func loneSender(mode int) foldBody {
	return func(c *Comm, r *Rank, log rankLog) {
		if c.Rank(r) != 0 {
			return
		}
		r.Proc().SleepUntil(1e-3)
		for field := 0; field < 3; field++ {
			buf := data.Synthetic(int64(400 << 10 >> (4 * field)))
			switch mode {
			case 1:
				req := c.Isend(r, 512, field, buf)
				req.Wait(r.Proc())
				log.add(r, 0, "field %d: local time %v", field, req.LocalTime())
			case 2:
				log.add(r, 0, "field %d: local time %v", field, c.IsendWait(r, 512, field, buf))
			}
		}
	}
}

// TestIsendWaitMatchesIsendThenWait checks IsendWait against Isend then
// Wait, with Sleep's fast path taken (a lone sender) and not (a group whose
// ranks all call at once): equal local times, return times, events, and
// the mpi.isend and mpi.wait spans both recorded, equal.
func TestIsendWaitMatchesIsendThenWait(t *testing.T) {
	const ranks = 1024
	ref := runFold(t, ranks, 0, ranks, loneSender(1))
	got := runFold(t, ranks, 0, ranks, loneSender(2))
	assertFoldMatches(t, "lone sender", ref, got)
	if idle := runFold(t, ranks, 0, ranks, loneSender(0)); got.events != idle.events+3 || got.woken != idle.woken {
		t.Errorf("lone sender: %d events and %d resumes, want the idle run's %d plus the 3 deliveries and its %d: the fast path schedules nothing",
			got.events, got.woken, idle.events, idle.woken)
	}
	for _, np := range []int{2, 3, 64} {
		name := fmt.Sprintf("np=%d", np)
		ref = runFold(t, ranks, 0, ranks, sendScenario(false, np, 1))
		got = runFold(t, ranks, 0, ranks, sendScenario(true, np, 1))
		if saved := assertFoldMatches(t, name, ref, got); saved == 0 {
			t.Errorf("%s: the fold saved no resume", name)
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
// ranks apart, which cross psets and run in a shared section: the
// continuation leaves the section on the exclusive lane, where the rank's
// own code would have.
func TestIsendWaitShardedMatchesIsendThenWait(t *testing.T) {
	const ranks = 1024
	for _, dst := range []int{1, 300} {
		assertShardedMatchesSerial(t, func(workers int) string {
			ref := runFold(t, ranks, workers, ranks, sendScenario(false, 3, dst))
			got := runFold(t, ranks, workers, ranks, sendScenario(true, 3, dst))
			assertFoldMatches(t, fmt.Sprintf("dst=%d workers=%d", dst, workers), ref, got)
			return got.log
		})
	}
}
