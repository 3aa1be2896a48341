package sim

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
)

// popAll drains the queue, asserting monotone (t, seq) order.
func popAll(t *testing.T, c *calQueue) []event {
	t.Helper()
	var out []event
	for c.len() > 0 {
		ev := c.pop()
		if n := len(out); n > 0 && !eventLess(out[n-1], ev) {
			t.Fatalf("pop %d out of order: %v after %v", n, ev, out[n-1])
		}
		out = append(out, ev)
	}
	return out
}

// slots counts the event slots the calendar holds in blocks: its lists'
// and its free list's.
func (c *calQueue) slots() int {
	n := 0
	count := func(blk *calBlock) {
		for ; blk != nil; blk = blk.next {
			n += calBlockLen
		}
	}
	count(c.cur.head)
	for j := range c.b {
		count(c.b[j].head)
	}
	count(c.free)
	return n
}

// TestCalQueueRandomAgainstSort drives the calendar through enough random
// events to spread them over most radix buckets, and checks the drain order
// against a plain sort. Time scales span nanoseconds to kiloseconds, the
// workload's bimodal spacing.
func TestCalQueueRandomAgainstSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	scales := []float64{1e-9, 1e-6, 1e-3, 1, 1e3}
	var c calQueue
	var all []event
	for seq := uint64(1); seq <= 20000; seq++ {
		ev := event{t: rng.Float64() * scales[rng.Intn(len(scales))], seq: seq}
		all = append(all, ev)
		c.push(ev)
	}
	got := popAll(t, &c)
	sort.Slice(all, func(i, j int) bool { return eventLess(all[i], all[j]) })
	for i := range all {
		if got[i] != all[i] {
			t.Fatalf("event %d: got %v want %v", i, got[i], all[i])
		}
	}
}

// TestCalQueueInterleavedChurn mixes pushes and pops (the simulation's actual
// access pattern) with times near the current head and occasional far-future
// ones, exercising refills from every bucket depth.
func TestCalQueueInterleavedChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var c calQueue
	now := 0.0
	seq := uint64(0)
	var last event
	var popped int
	for step := 0; step < 50000; step++ {
		if c.len() == 0 || rng.Intn(3) > 0 {
			seq++
			// Mostly near-future, occasionally far-future.
			d := rng.Float64() * 1e-6
			if rng.Intn(50) == 0 {
				d = rng.Float64() * 10
			}
			c.push(event{t: now + d, seq: seq})
			continue
		}
		ev := c.pop()
		if popped > 0 && !eventLess(last, ev) {
			t.Fatalf("step %d: pop %v after %v", step, ev, last)
		}
		if ev.t < now {
			t.Fatalf("step %d: time went backwards: %v < %v", step, ev.t, now)
		}
		now, last, popped = ev.t, ev, popped+1
	}
	popAll(t, &c)
}

// TestCalQueueSameTimestampFIFO checks that a deep same-timestamp cluster —
// a barrier releasing thousands of ranks at one instant — drains in exact
// scheduling order, including when pops interleave with new same-time pushes.
func TestCalQueueSameTimestampFIFO(t *testing.T) {
	var c calQueue
	const at = 3.5
	for seq := uint64(1); seq <= 5000; seq++ {
		c.push(event{t: at, seq: seq})
	}
	next := uint64(5001)
	for i := 0; i < 2000; i++ {
		ev := c.pop()
		if ev.seq != uint64(i+1) {
			t.Fatalf("pop %d: seq %d, want %d", i, ev.seq, i+1)
		}
		if i%2 == 0 {
			c.push(event{t: at, seq: next})
			next++
		}
	}
	want := uint64(2001)
	for c.len() > 0 {
		ev := c.pop()
		if ev.seq != want {
			t.Fatalf("drain: seq %d, want %d", ev.seq, want)
		}
		want++
	}
	if want != next {
		t.Fatalf("drained to seq %d, want %d", want, next)
	}
}

// calWave releases a barrier of 10,000 ranks at 1+r/1024 and drains what it
// schedules: ties at the barrier instant and later wakeups in runs of about
// 160 events at one time, longer than a block, all before the next wave's
// barrier. The barrier's low mantissa bits are zero, so every wave files
// into the buckets the same way; only the barrier event itself lands in a
// bucket that depends on r (on the trailing zeros of r). It returns the
// number of events the wave held at its peak.
func calWave(t *testing.T, c *calQueue, r int, seq *uint64) int {
	at := 1 + float64(r)*0x1p-10
	*seq++
	c.push(event{t: at, seq: *seq})
	c.pop() // the barrier's last arrival: the clock is now at
	for i := 0; i < 10000; i++ {
		*seq++
		f := float64(i%61)/61 + float64(i%3)*0x1p-40
		c.push(event{t: at + f*0x1p-11, seq: *seq})
	}
	peak := c.len()
	last := event{t: at}
	for c.len() > 0 {
		ev := c.pop()
		if ev.t < last.t || ev.t == last.t && ev.seq < last.seq {
			t.Fatalf("wave %d: pop %v after %v", r, ev, last)
		}
		last = ev
	}
	return peak
}

// mallocs reports the heap allocations fn makes. The count is process-wide,
// so it runs fn on one P, as testing.AllocsPerRun does: with a second P
// the runtime's own work there now and then lands one 16-byte allocation
// in the window (about once in 60 runs on two cores, never in 180 on one).
func mallocs(fn func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestCalQueueWaveReusesBlocks pins the calendar's storage contract: a
// drained wave's blocks stay on the free list for the next wave, so a
// repeated identical wave allocates nothing, and what the calendar keeps
// afterwards is bounded by the wave's peak rounded up to whole blocks plus
// the one block each list keeps.
func TestCalQueueWaveReusesBlocks(t *testing.T) {
	var c calQueue
	var seq uint64
	peak := calWave(t, &c, 1, &seq)
	lists := 1 + len(c.b)
	bound := (peak+calBlockLen-1)/calBlockLen*calBlockLen + lists*calBlockLen
	if got := c.slots(); got > bound {
		t.Errorf("%d slots kept after a %d-event wave drained, want <= %d", got, peak, bound)
	}
	// By wave 8 every list waves 9..15 use holds the block it keeps
	// (wave r's barrier files by the trailing zeros of r).
	for r := 2; r <= 8; r++ {
		calWave(t, &c, r, &seq)
	}
	if n := mallocs(func() {
		for r := 9; r <= 15; r++ {
			calWave(t, &c, r, &seq)
		}
	}); n != 0 {
		t.Errorf("repeated waves allocate: %d allocs over 7 waves", n)
	}
	if got := c.slots(); got > bound {
		t.Errorf("%d slots kept after 15 waves, want <= %d", got, bound)
	}
}

// TestCalQueueSparseChurnKeepsBlocks checks the sparse end: alternating
// push and pop with one event queued — a lone process sleeping — moves no
// block. Each list reuses the block it keeps when it empties, so after a
// warm-up nothing is allocated and the free list stays empty.
func TestCalQueueSparseChurnKeepsBlocks(t *testing.T) {
	var c calQueue
	c.push(event{t: 1, seq: 1})
	c.pop()
	// The k-th push lands in bucket 32+tz(k); the warm-up reaches every
	// bucket the measured steps use.
	k := uint64(1)
	step := func() {
		k++
		c.push(event{t: 1 + float64(k)*0x1p-20, seq: k})
		c.pop()
	}
	for k < 4096 {
		step()
	}
	var heads [65]*calBlock
	heads[0] = c.cur.head
	for j := range c.b {
		heads[j+1] = c.b[j].head
	}
	slots := c.slots()
	if n := mallocs(func() {
		for i := 0; i < 1000; i++ {
			step()
		}
	}); n != 0 {
		t.Errorf("sparse churn allocates: %d allocs over 1000 push/pops", n)
	}
	if c.free != nil || c.slots() != slots {
		t.Errorf("sparse churn moved blocks: free list %p, %d slots (was %d)", c.free, c.slots(), slots)
	}
	if c.cur.head != heads[0] {
		t.Errorf("cur changed blocks")
	}
	for j := range c.b {
		if c.b[j].head != heads[j+1] {
			t.Errorf("bucket %d changed blocks", j)
		}
	}
}

// TestCalQueueInfinityAndHugeTimes checks that the largest times — +Inf
// sentinels and 1e300 — file and drain in order.
func TestCalQueueInfinityAndHugeTimes(t *testing.T) {
	var c calQueue
	c.push(event{t: math.Inf(1), seq: 1})
	c.push(event{t: 1e300, seq: 2})
	c.push(event{t: 1e-6, seq: 3})
	c.push(event{t: 5, seq: 4})
	c.push(event{t: math.Inf(1), seq: 5})
	got := popAll(t, &c)
	wantSeq := []uint64{3, 4, 2, 1, 5}
	for i, w := range wantSeq {
		if got[i].seq != w {
			t.Fatalf("pop %d: seq %d, want %d", i, got[i].seq, w)
		}
	}
}

// TestCalQueuePeekThenPushEarlier covers the pattern of the RunUntil
// horizon stop, Sleep's fast path and the sharded head heap: peek the head,
// then push an event earlier than it (but not earlier than the last pop).
// The next peek and pop must return the new event.
func TestCalQueuePeekThenPushEarlier(t *testing.T) {
	var c calQueue
	c.push(event{t: 1, seq: 1})
	c.pop()
	c.push(event{t: 5, seq: 2})
	if ev, _ := c.peek(); ev.seq != 2 {
		t.Fatalf("peek: seq %d, want 2", ev.seq)
	}
	c.push(event{t: 3, seq: 3})
	if ev, _ := c.peek(); ev.seq != 3 {
		t.Fatalf("peek after earlier push: seq %d, want 3", ev.seq)
	}
	c.push(event{t: 1, seq: 4}) // at the last popped time itself
	if ev, _ := c.peek(); ev.seq != 4 {
		t.Fatalf("peek after push at the last pop: seq %d, want 4", ev.seq)
	}
	got := popAll(t, &c)
	for i, w := range []uint64{4, 3, 2} {
		if got[i].seq != w {
			t.Fatalf("pop %d: seq %d, want %d", i, got[i].seq, w)
		}
	}
}

// TestCalQueueSignedZero checks that -0.0 and +0.0 are one instant: events
// at either drain in seq order, and each keeps the sign it was pushed with.
func TestCalQueueSignedZero(t *testing.T) {
	var c calQueue
	neg := math.Copysign(0, -1)
	c.push(event{t: neg, seq: 1})
	c.push(event{t: 0, seq: 2})
	c.push(event{t: neg, seq: 3})
	for i, ev := range popAll(t, &c) {
		if want := uint64(i + 1); ev.seq != want {
			t.Fatalf("pop %d: seq %d, want %d", i, ev.seq, want)
		}
		if math.Signbit(ev.t) != (ev.seq != 2) {
			t.Fatalf("pop %d: t %v lost its sign", i, ev.t)
		}
	}
}

// TestCalQueueForEachRefreshesPeek checks that peek reflects a forEach
// rewrite of the origin-chain stamp: the sharded re-root rewrites
// parent/idx in place and then peeks each partition's head again.
func TestCalQueueForEachRefreshesPeek(t *testing.T) {
	var c calQueue
	c.push(event{t: 2, seq: 1})
	c.push(event{t: 3, seq: 2})
	if ev, _ := c.peek(); ev.idx != 0 {
		t.Fatalf("peek: idx %d, want 0", ev.idx)
	}
	c.forEach(func(ev *event) { ev.idx = 7 })
	if ev, _ := c.peek(); ev.idx != 7 {
		t.Fatalf("peek after forEach: idx %d, want 7", ev.idx)
	}
}

// TestCalQueuePushOutOfRangePanics checks that a push the monotone radix
// heap cannot file — below the last popped time, negative, or NaN — fails
// loudly instead of reordering events.
func TestCalQueuePushOutOfRangePanics(t *testing.T) {
	for _, at := range []float64{1, -1, math.NaN()} {
		var c calQueue
		c.push(event{t: 2, seq: 1})
		c.pop()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("push at %v after popping 2 did not panic", at)
				}
			}()
			c.push(event{t: at, seq: 2})
		}()
	}
}

// churnHook is a pooled self-rescheduling event with an xorshift delay, so
// the standing population spreads over many buckets instead of marching in
// lockstep.
type churnHook struct {
	k   *Kernel
	rng uint64
}

func (h *churnHook) Fire() {
	h.rng ^= h.rng << 13
	h.rng ^= h.rng >> 7
	h.rng ^= h.rng << 17
	h.k.AfterHook(1e-7+float64(h.rng%1024)*1e-8, h)
}

// TestEventChurnAllocFree pins the kernel's 0 allocs/op contract for event
// churn: with a standing population of 1024 pooled hooks, dispatching and
// rescheduling them allocates nothing once the calendar has warmed up.
func TestEventChurnAllocFree(t *testing.T) {
	k := NewKernel()
	hooks := make([]churnHook, 1024)
	for i := range hooks {
		hooks[i] = churnHook{k: k, rng: uint64(i)*2654435761 + 1}
		k.AfterHook(float64(i+1)*1e-7, &hooks[i])
	}
	k.RunUntil(1e-3) // warm-up: every bucket reaches its working capacity
	before := k.Events()
	if avg := testing.AllocsPerRun(50, func() { k.RunUntil(k.Now() + 1e-5) }); avg != 0 {
		t.Fatalf("event churn allocates: %.1f allocs per run", avg)
	}
	if n := k.Events() - before; n < 50*1000 {
		t.Fatalf("only %d events churned in 51 runs", n)
	}
}

// fuzzTime decodes one byte into a push time no earlier than last: the low
// three bits pick a scale from a same-instant tie to +Inf, the rest a
// fraction of it. A tie at time zero may come out as -0.0.
func fuzzTime(last float64, d byte) float64 {
	scale := [...]float64{0, 1e-9, 1e-6, 1e-3, 1, 1e3, 1e300, math.Inf(1)}[d&7]
	switch {
	case scale == 0 && last == 0 && d&8 != 0:
		return math.Copysign(0, -1)
	case math.IsInf(scale, 1):
		return scale
	}
	return last + scale*float64(d>>3)/31
}

// FuzzCalendar decodes bytes into monotone push/peek/pop/forEach operations
// and checks every peek and pop against a sorted reference. A push byte's
// upper bits become a layer tag in the seq, which must not affect order.
func FuzzCalendar(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 3, 0, 0, 3, 3, 3})                   // same-timestamp FIFO
	f.Add([]byte{0, 7, 0, 6, 0, 2, 0, 4, 3, 3, 3, 3})                   // +Inf and 1e300
	f.Add([]byte{0, 0xf4, 3, 0, 0xf4, 2, 0, 0x14, 2, 0, 0, 2, 3, 3, 3}) // peek, then push earlier
	f.Add([]byte{0, 8, 0, 0, 0, 8, 3, 3, 3})                            // -0.0 and +0.0
	f.Add([]byte{0, 0x24, 0, 0x2c, 2, 4, 2, 3, 3})                      // forEach after peek
	f.Add([]byte{0, 0x7a, 0, 0x3b, 1, 0x7c, 3, 0, 0x0b, 4, 3, 3, 3})    // mixed scales
	// Across block boundaries: a same-time run longer than a block filed
	// in a bucket, refilled into cur; a multi-block bucket of mixed times
	// refilled into cur and lower buckets; forEach over a multi-block cur
	// after partial pops.
	long := calBlockLen + 6
	f.Add(slices.Concat(bytes.Repeat([]byte{0, 0xfc}, long), []byte{3, 3, 4, 2, 0, 0, 3}))
	var mixed []byte
	for i := 0; i < long; i++ {
		mixed = append(mixed, 0, byte(16+i%16)<<3|4) // t in [16/31, 1]
	}
	f.Add(slices.Concat(mixed, []byte{2, 3, 4, 3, 2, 3}))
	f.Add(slices.Concat(bytes.Repeat([]byte{0, 0}, long), bytes.Repeat([]byte{3}, 10), []byte{4, 2, 3, 3, 3, 3, 3}))
	f.Fuzz(func(t *testing.T, ops []byte) {
		var c calQueue
		var ref []event // the queued events in (t, seq) order
		last, seq := 0.0, uint64(0)
		for i := 0; i < len(ops); i++ {
			op := ops[i]
			switch op % 5 {
			case 0, 1:
				var d byte
				if i+1 < len(ops) {
					i++
					d = ops[i]
				}
				seq++
				ev := event{t: fuzzTime(last, d), seq: seq | uint64(op>>3)<<layerShift, idx: seq}
				c.push(ev)
				at := sort.Search(len(ref), func(j int) bool { return eventLess(ev, ref[j]) })
				ref = append(ref[:at], append([]event{ev}, ref[at:]...)...)
			case 2:
				got, ok := c.peek()
				if ok != (len(ref) > 0) || ok && !sameEvent(got, ref[0]) {
					t.Fatalf("op %d: peek %v %v, want %v", i, got, ok, ref)
				}
			case 3:
				if len(ref) == 0 {
					continue
				}
				if got := c.pop(); !sameEvent(got, ref[0]) {
					t.Fatalf("op %d: pop %v, want %v", i, got, ref[0])
				}
				last, ref = ref[0].t, ref[1:]
			case 4:
				c.forEach(func(ev *event) { ev.idx += 1 << 32 })
				for j := range ref {
					ref[j].idx += 1 << 32
				}
			}
			if c.len() != len(ref) {
				t.Fatalf("op %d: len %d, want %d", i, c.len(), len(ref))
			}
		}
		for _, want := range ref {
			if got := c.pop(); !sameEvent(got, want) {
				t.Fatalf("drain: pop %v, want %v", got, want)
			}
		}
	})
}

// sameEvent compares two events field by field, telling -0.0 from +0.0.
func sameEvent(a, b event) bool {
	return a == b && math.Signbit(a.t) == math.Signbit(b.t)
}
