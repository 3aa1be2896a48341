package mpi

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// newMachine builds an Intrepid partition of ranks ranks on a fresh kernel.
// workers > 0 partitions the kernel one lane per pset with that many lane
// workers; 0 keeps it serial.
func newMachine(t *testing.T, ranks, workers int) *machine.Machine {
	t.Helper()
	k := sim.NewKernel()
	m := machine.MustNew(k, xrand.New(1), machine.Intrepid(ranks))
	if m.NumPsets() < 4 {
		t.Fatalf("%d ranks span %d psets, want at least 4", ranks, m.NumPsets())
	}
	if workers > 0 {
		k.EnableSharding(m.NumPsets(), workers, Lookahead(m), 1)
	}
	return m
}

// rankLog collects one line per event per rank. Ranks of different psets
// log from different lanes, so each rank owns its slot.
type rankLog [][]string

func (l rankLog) add(r *Rank, base int, format string, args ...any) {
	l[r.ID()-base] = append(l[r.ID()-base], fmt.Sprintf("t=%v "+format, append([]any{r.Now()}, args...)...))
}

func (l rankLog) String() string {
	var b strings.Builder
	for i, lines := range l {
		for _, s := range lines {
			fmt.Fprintf(&b, "%d: %s\n", i, s)
		}
	}
	return b.String()
}

// assertShardedMatchesSerial runs scenario on the serial kernel and on the
// partitioned kernel at 1, 2 and 4 lane workers and under GOMAXPROCS=1, and
// requires every log — receive order, source ranks, times — to match.
func assertShardedMatchesSerial(t *testing.T, scenario func(workers int) string) {
	t.Helper()
	ref := scenario(0)
	for _, workers := range []int{1, 2, 4} {
		if got := scenario(workers); got != ref {
			t.Fatalf("workers=%d differs from serial:\n%s\nvs serial\n%s", workers, got, ref)
		}
	}
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	if got := scenario(4); got != ref {
		t.Fatalf("GOMAXPROCS=1 workers=4 differs from serial:\n%s\nvs serial\n%s", got, ref)
	}
}

// tiedSenders finds two sender nodes — one in the receiver's pset, one in
// another — whose routes to recv have equal hop counts and share no link.
// Sends posted by both at the same instant on idle links therefore arrive
// at exactly the same time.
func tiedSenders(t *testing.T, m *machine.Machine, recv int) (same, cross int) {
	t.Helper()
	route := func(src int) []int { return m.Topo.AppendRoute(nil, src, recv) }
	disjoint := func(a, b []int) bool {
		for _, x := range a {
			for _, y := range b {
				if x == y {
					return false
				}
			}
		}
		return true
	}
	for a := 0; a < m.NumNodes(); a++ {
		if a == recv || m.PsetOfNode(a) != m.PsetOfNode(recv) {
			continue
		}
		ra := route(a)
		for b := 0; b < m.NumNodes(); b++ {
			if m.PsetOfNode(b) == m.PsetOfNode(recv) {
				continue
			}
			if rb := route(b); len(rb) == len(ra) && disjoint(ra, rb) {
				return a, b
			}
		}
	}
	t.Fatal("no tied sender pair")
	return 0, 0
}

// TestShardedTiedArrivals pins cross-context tie-breaking: a same-pset send
// (priced and delivered on the pset's lane) and a cross-pset send (on the
// exclusive lane) reach one receiver at the same instant, twice — once into
// a posted AnySource receive, once into the inbox of a receiver that is
// still busy. The receive order must be the serial kernel's.
func TestShardedTiedArrivals(t *testing.T) {
	const ranks, rpn = 1024, 4
	probe := newMachine(t, ranks, 0)
	recvNode := probe.Cfg.NodesPerPset - 1 // last node of pset 0, next to pset 1
	sameNode, crossNode := tiedSenders(t, probe, recvNode)

	// Confirm the tie on idle fabric with the transfer arithmetic itself.
	cfg := DefaultConfig()
	localDone := sendOverhead + 8/cfg.LocalCopyBW
	arrive := func(src int) float64 {
		return probe.Net.Transfer(probe.Net.Inject(localDone, src, 8), src, recvNode, 8)
	}
	if a, b := arrive(sameNode), arrive(crossNode); a != b {
		t.Fatalf("sender nodes %d and %d arrive at %v and %v, not tied", sameNode, crossNode, a, b)
	}

	recv, same, cross := recvNode*rpn, sameNode*rpn, crossNode*rpn
	assertShardedMatchesSerial(t, func(workers int) string {
		w := NewWorld(newMachine(t, ranks, workers), cfg)
		log := make(rankLog, ranks)
		err := w.Run(func(c *Comm, r *Rank) {
			switch r.ID() {
			case same, cross:
				c.Send(r, recv, 1, data.Synthetic(8))
				r.Proc().SleepUntil(1e-3)
				c.Send(r, recv, 2, data.Synthetic(8))
			case recv:
				for i := 0; i < 2; i++ {
					_, src := c.Recv(r, AnySource, 1) // the first is posted before either arrives
					log.add(r, 0, "tag 1 from %d", src)
				}
				r.Proc().SleepUntil(2e-3) // both tag-2 messages wait in the inbox
				for i := 0; i < 2; i++ {
					_, src := c.Recv(r, AnySource, 2)
					log.add(r, 0, "tag 2 from %d", src)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return log.String()
	})
}

// worldCollectives runs Split, AllgatherInt64, BcastValueSized and Barrier
// on the world communicator (every one spans psets), then point-to-point and
// collective traffic inside the pset-spanning and pset-local children, and
// logs every rank's results and completion times.
func worldCollectives(w *World, log rankLog) func(c *Comm, r *Rank) {
	type token struct{ s string }
	return func(c *Comm, r *Rank) {
		me := c.Rank(r)
		if me%5 == 0 {
			r.Proc().Sleep(float64(me%7) * 1e-6) // stagger arrivals
		}
		stripe := c.Split(r, int64(me%3), int64(me))
		log.add(r, w.base, "stripe %d of %d", stripe.Rank(r), stripe.Size())
		all := c.AllgatherInt64(r, int64(me*me))
		var sum int64
		for _, v := range all {
			sum += v
		}
		log.add(r, w.base, "allgather sum %d", sum)
		var v any
		root := c.Size() - 1
		if me == root {
			v = &token{s: "from the last pset"}
		}
		log.add(r, w.base, "bcast %q", c.BcastValueSized(r, root, v, 64).(*token).s)
		c.Barrier(r)
		log.add(r, w.base, "barrier")

		// The stripe spans psets; ring-shift a message inside it.
		n, sr := stripe.Size(), stripe.Rank(r)
		stripe.Send(r, (sr+1)%n, 7, data.Synthetic(int64(64*(sr%4+1))))
		buf, src := stripe.Recv(r, (sr+n-1)%n, 7)
		log.add(r, w.base, "stripe ring got %d bytes from %d", buf.Len(), src)
		stripe.Barrier(r)
		log.add(r, w.base, "stripe barrier")

		// A pset-local child: its registries live on its lane.
		local := c.Split(r, int64(r.pset), int64(me))
		max := slices.Max(local.AllgatherInt64(r, int64(me)))
		log.add(r, w.base, "local %d of %d max %v", local.Rank(r), local.Size(), max)
		local.Barrier(r)
		log.add(r, w.base, "local barrier")
	}
}

// TestShardedWorldCollectives pins the world-wide collectives — whose tree
// sends ride the lanes except where they cross psets — against serial.
func TestShardedWorldCollectives(t *testing.T) {
	const ranks = 1024
	assertShardedMatchesSerial(t, func(workers int) string {
		w := NewWorld(newMachine(t, ranks, workers), DefaultConfig())
		log := make(rankLog, ranks)
		if err := w.Run(worldCollectives(w, log)); err != nil {
			t.Fatal(err)
		}
		if st, ok := w.K.ShardStats(); ok && st.ParallelWindows == 0 {
			t.Errorf("no window ran lanes in parallel: %+v", st)
		}
		return log.String()
	})
}

// TestShardedTenantWorlds runs two tenant worlds from NewWorldOn on one
// machine — the second at a non-zero base, spanning four psets — through
// the same collectives, driven by one kernel run.
func TestShardedTenantWorlds(t *testing.T) {
	const ranks = 2048
	assertShardedMatchesSerial(t, func(workers int) string {
		m := newMachine(t, ranks, workers)
		al := machine.NewAllocator(m)
		var out strings.Builder
		var logs []rankLog
		for i, size := range []int{512, 1024} {
			a, err := al.Alloc(fmt.Sprintf("tenant%d", i), size, "", 1)
			if err != nil {
				t.Fatal(err)
			}
			w := NewWorldOn(m, a, DefaultConfig())
			if i == 1 && w.base == 0 {
				t.Fatal("second tenant starts at base 0")
			}
			log := make(rankLog, size)
			w.Spawn(worldCollectives(w, log))
			logs = append(logs, log)
		}
		if err := m.K.Run(); err != nil {
			t.Fatal(err)
		}
		for i, log := range logs {
			fmt.Fprintf(&out, "tenant %d\n%s", i, log)
		}
		return out.String()
	})
}

// TestShardedBarrierReleaseGap pins the release of a pset-spanning barrier
// whose last rank arrives while the first waiter's pset keeps running:
// rank 0 waits in a two-rank barrier with rank 256 (the next pset), which
// arrives 10 µs later, and rank 1 keeps pset 0's lane busy in 0.1 µs steps
// across the release. The window that suspends rank 256's arrival lets
// pset 0 run up to one lookahead past it, so the lookahead must not exceed
// the barrier network's release latency: a longer one puts pset 0's clock
// past rank 0's release, and rank 0's next Sleep lands in its partition's
// past. (sim's TestShardedNowOffLane pins what rank 0 reads meanwhile.)
func TestShardedBarrierReleaseGap(t *testing.T) {
	const ranks = 1024
	assertShardedMatchesSerial(t, func(workers int) string {
		w := NewWorld(newMachine(t, ranks, workers), DefaultConfig())
		log := make(rankLog, ranks)
		err := w.Run(func(c *Comm, r *Rank) {
			me := c.Rank(r)
			color := int64(1)
			if me == 0 || me == 256 {
				color = 0
			}
			pair := c.Split(r, color, int64(me))
			c.Barrier(r) // every rank leaves at one instant
			switch me {
			case 256:
				r.Proc().Sleep(10e-6)
				fallthrough
			case 0:
				pair.Barrier(r)
				log.add(r, 0, "released")
				r.Proc().Sleep(1e-7)
				log.add(r, 0, "slept")
			case 1:
				r.Proc().Sleep(10e-6)
				for i := 0; i < 100; i++ {
					r.Proc().Sleep(1e-7)
				}
				log.add(r, 0, "done")
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return log.String()
	})
}
