package sim

import (
	"runtime"
	"sort"
	"testing"

	"repro/internal/xrand"
)

// TestChainLessMatchesReferenceOrder is the origin-chain property test: it
// replays a randomized reference serial execution — pop the (t, seq)
// minimum, open a segment, insert children, occasionally elide a resume
// under the fast path's own guard — while stamping every insert through a
// chainCtx exactly as the sharded kernel does. The property pinned: for
// every pair of events ever created, keyLess (time, then genealogy) agrees
// with the reference (time, insertion seq) order. That equivalence is what
// lets partitions with independent sequence counters reconstruct the
// serial kernel's global tie-break without global state.
func TestChainLessMatchesReferenceOrder(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 7, 1234} {
		rng := xrand.New(seed)
		type item struct {
			ev  event // t, parent, idx as stamped; seq is the global counter
			seq uint64
		}
		var all []item  // every event ever created, in creation order
		var live []item // still-pending events, reference calendar
		var ctx chainCtx
		ctx.initRoot()
		seq := uint64(0)
		// Times live on a coarse grid so equal-timestamp ties — the entire
		// point of the genealogy — are common.
		grid := func() float64 { return float64(rng.Intn(4)) * 1e-6 }
		insert := func(tm float64) {
			seq++
			parent, idx := ctx.stamp()
			it := item{ev: event{t: tm, parent: parent, idx: idx}, seq: seq}
			all = append(all, it)
			live = append(live, it)
		}
		for i := 0; i < 6; i++ {
			insert(grid())
		}
		popMin := func() item {
			best := 0
			for i, it := range live {
				if it.ev.t < live[best].ev.t ||
					(it.ev.t == live[best].ev.t && it.seq < live[best].seq) {
					best = i
				}
			}
			it := live[best]
			live = append(live[:best], live[best+1:]...)
			return it
		}
		minT := func() (float64, bool) {
			if len(live) == 0 {
				return 0, false
			}
			m := live[0].ev.t
			for _, it := range live[1:] {
				if it.ev.t < m {
					m = it.ev.t
				}
			}
			return m, true
		}
		for step := 0; step < 400 && len(live) > 0; step++ {
			cur := popMin()
			ctx.begin(cur.ev.parent, cur.ev.t, cur.ev.idx)
			now := cur.ev.t
			for n := rng.Intn(3); n > 0; n-- {
				insert(now + grid())
			}
			if rng.Intn(3) == 0 {
				// The Sleep fast path: elide only when the wake time
				// strictly precedes every pending event (its guard).
				wake := now + 1e-6 + grid()
				if m, ok := minT(); ok && wake < m {
					seq++ // the reference resume consumes a seq slot
					ctx.elide(wake)
					now = wake
					for n := rng.Intn(3); n > 0; n-- {
						insert(now + grid())
					}
				}
			}
		}
		for i := range all {
			for j := range all {
				refLess := all[i].ev.t < all[j].ev.t ||
					(all[i].ev.t == all[j].ev.t && all[i].seq < all[j].seq)
				if got := keyLess(all[i].ev, all[j].ev); got != refLess {
					t.Fatalf("seed %d: keyLess(#%d, #%d)=%v, reference (t,seq) order says %v\n"+
						"a={t:%v seq:%d idx:%d} b={t:%v seq:%d idx:%d}",
						seed, i, j, got, refLess,
						all[i].ev.t, all[i].seq, all[i].ev.idx,
						all[j].ev.t, all[j].seq, all[j].ev.idx)
				}
			}
		}
	}
}

// TestChainBoundSentinel pins the bound convention: the zero stamp
// (parent nil, idx 0) precedes every real event at its own time, so the
// lanes' strictly-below-bound condition excludes bound-time events whether
// they are root-stamped or chained.
func TestChainBoundSentinel(t *testing.T) {
	bound := event{t: 1.0}
	var ctx chainCtx
	ctx.initRoot()
	p0, i0 := ctx.stamp()
	root := event{t: 1.0, parent: p0, idx: i0}
	if keyLess(root, bound) {
		t.Error("root event at bound time must not pass the bound")
	}
	if !keyLess(bound, root) {
		t.Error("bound must precede a root event at its own time")
	}
	ctx.begin(nil, 0.5, 1)
	pc, ic := ctx.stamp()
	chained := event{t: 1.0, parent: pc, idx: ic}
	if keyLess(chained, bound) {
		t.Error("chained event at bound time must not pass the bound")
	}
	earlier := event{t: 0.5, parent: p0, idx: i0 + 1}
	if !keyLess(earlier, bound) {
		t.Error("event before the bound time must pass the bound")
	}
}

// TestShardedRerootEquivalence forces origin-chain re-roots every few
// dispatch generations and checks the observable history of the
// partitioned model is byte-identical to a run that never re-roots:
// compaction must be invisible.
func TestShardedRerootEquivalence(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	prev := chainRerootGoal
	defer func() { chainRerootGoal = prev }()
	for _, tied := range []bool{false, true} {
		chainRerootGoal = prev
		base, baseStats, baseNow := shardScript(t, 5, 4, tied)
		for _, goal := range []uint64{0, 8, 64} {
			chainRerootGoal = goal
			got, gotStats, gotNow := shardScript(t, 5, 4, tied)
			if got != base {
				t.Fatalf("tied=%v goal=%d history diverged from no-reroot run", tied, goal)
			}
			if gotStats != baseStats || gotNow != baseNow {
				t.Fatalf("tied=%v goal=%d stats diverged: %+v vs %+v, now %v vs %v",
					tied, goal, gotStats, baseStats, gotNow, baseNow)
			}
		}
	}
}

// TestChainLessIsStrictWeakOrder sanity-checks comparator algebra on a
// brood of related stamps: irreflexivity, asymmetry, and agreement with
// sort (no panics, stable result).
func TestChainLessIsStrictWeakOrder(t *testing.T) {
	var ctx chainCtx
	ctx.initRoot()
	var evs []event
	for i := 0; i < 4; i++ {
		p, ix := ctx.stamp()
		evs = append(evs, event{t: 1.0, parent: p, idx: ix})
	}
	// Two nested generations at the same timestamp.
	for g := 0; g < 3; g++ {
		src := evs[len(evs)-1]
		ctx.begin(src.parent, src.t, src.idx)
		for i := 0; i < 3; i++ {
			p, ix := ctx.stamp()
			evs = append(evs, event{t: 1.0, parent: p, idx: ix})
		}
	}
	for i := range evs {
		if keyLess(evs[i], evs[i]) {
			t.Fatalf("keyLess not irreflexive at %d", i)
		}
		for j := range evs {
			if i != j && keyLess(evs[i], evs[j]) && keyLess(evs[j], evs[i]) {
				t.Fatalf("keyLess not asymmetric at (%d,%d)", i, j)
			}
		}
	}
	sorted := append([]event(nil), evs...)
	sort.Slice(sorted, func(i, j int) bool { return keyLess(sorted[i], sorted[j]) })
	for i := 1; i < len(sorted); i++ {
		if keyLess(sorted[i], sorted[i-1]) {
			t.Fatalf("sort order violated at %d", i)
		}
	}
}
