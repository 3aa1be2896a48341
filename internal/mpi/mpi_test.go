package mpi

import (
	"testing"

	"repro/internal/data"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// newWorld builds an MPI world over a small Intrepid partition.
func newWorld(t *testing.T, ranks int) *World {
	t.Helper()
	k := sim.NewKernel()
	m := machine.MustNew(k, xrand.New(1), machine.Intrepid(ranks))
	return NewWorld(m, DefaultConfig())
}

func TestSendRecv(t *testing.T) {
	w := newWorld(t, 256)
	payload := []byte("hello from rank 0")
	err := w.Run(func(c *Comm, r *Rank) {
		switch r.ID() {
		case 0:
			c.Send(r, 37, 5, data.FromBytes(payload))
		case 37:
			buf, src := c.Recv(r, 0, 5)
			if src != 0 {
				t.Errorf("src %d, want 0", src)
			}
			if string(buf.Bytes()) != string(payload) {
				t.Errorf("payload %q", buf.Bytes())
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvBeforeSendBlocks(t *testing.T) {
	w := newWorld(t, 256)
	var recvTime float64
	err := w.Run(func(c *Comm, r *Rank) {
		switch r.ID() {
		case 1:
			buf, _ := c.Recv(r, 0, 1) // posted long before the send
			recvTime = r.Now()
			if buf.Len() != 1024 {
				t.Errorf("len %d", buf.Len())
			}
		case 0:
			r.Proc().Sleep(2.0)
			c.Send(r, 1, 1, data.Synthetic(1024))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if recvTime < 2.0 {
		t.Fatalf("receive completed at %v, before the send at 2.0", recvTime)
	}
}

func TestMessageOrderingSameTag(t *testing.T) {
	w := newWorld(t, 256)
	err := w.Run(func(c *Comm, r *Rank) {
		switch r.ID() {
		case 0:
			for i := 0; i < 5; i++ {
				c.Send(r, 1, 9, data.FromBytes([]byte{byte(i)}))
			}
		case 1:
			for i := 0; i < 5; i++ {
				buf, _ := c.Recv(r, 0, 9)
				if buf.Bytes()[0] != byte(i) {
					t.Errorf("message %d out of order: got %d", i, buf.Bytes()[0])
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAnySource(t *testing.T) {
	w := newWorld(t, 256)
	got := map[int]bool{}
	err := w.Run(func(c *Comm, r *Rank) {
		switch {
		case r.ID() == 0:
			for i := 0; i < 3; i++ {
				_, src := c.Recv(r, AnySource, 2)
				got[src] = true
			}
		case r.ID() <= 3:
			c.Send(r, 0, 2, data.Synthetic(8))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !got[1] || !got[2] || !got[3] {
		t.Fatalf("AnySource missed senders: %v", got)
	}
}

func TestIsendPerceivedTimeTiny(t *testing.T) {
	// The heart of rbIO: a worker's Isend of a ~400 KB field must complete
	// locally in tens of microseconds even though the wire transfer and the
	// receiver take far longer.
	w := newWorld(t, 256)
	err := w.Run(func(c *Comm, r *Rank) {
		switch r.ID() {
		case 0:
			req := c.Isend(r, 255, 3, data.Synthetic(400<<10))
			req.Wait(r.Proc())
			if lt := req.LocalTime(); lt > 100e-6 {
				t.Errorf("perceived Isend time %v, want < 100us", lt)
			}
		case 255:
			c.Recv(r, 0, 3)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	w := newWorld(t, 64)
	var minExit = 1e18
	err := w.Run(func(c *Comm, r *Rank) {
		// Rank 5 arrives late; nobody may exit before it arrives.
		if r.ID() == 5 {
			r.Proc().Sleep(3.0)
		}
		c.Barrier(r)
		if r.Now() < minExit {
			minExit = r.Now()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if minExit < 3.0 {
		t.Fatalf("a rank left the barrier at %v, before the late rank entered at 3.0", minExit)
	}
}

func TestBcast(t *testing.T) {
	w := newWorld(t, 128)
	payload := []byte{1, 2, 3, 4}
	wrong := 0
	err := w.Run(func(c *Comm, r *Rank) {
		var buf data.Buf
		if r.ID() == 7 {
			buf = data.FromBytes(payload)
		}
		got := c.Bcast(r, 7, buf)
		if string(got.Bytes()) != string(payload) {
			wrong++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if wrong != 0 {
		t.Fatalf("%d ranks got a wrong broadcast", wrong)
	}
}

func TestAllgatherInt64(t *testing.T) {
	w := newWorld(t, 64)
	err := w.Run(func(c *Comm, r *Rank) {
		all := c.AllgatherInt64(r, int64(r.ID()))
		if len(all) != 64 {
			t.Errorf("allgather size %d", len(all))
		}
		for i, v := range all {
			if v != int64(i) {
				t.Errorf("allgather[%d] = %d on rank %d", i, v, r.ID())
				break
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitGroups(t *testing.T) {
	w := newWorld(t, 64)
	err := w.Run(func(c *Comm, r *Rank) {
		group := c.Split(r, int64(r.ID()/16), int64(r.ID()))
		if group.Size() != 16 {
			t.Errorf("group size %d, want 16", group.Size())
		}
		if got, want := group.Rank(r), r.ID()%16; got != want {
			t.Errorf("rank %d group rank %d, want %d", r.ID(), got, want)
		}
		// Same-color ranks share the same Comm and can talk within it.
		me := group.Rank(r)
		if me == 0 {
			for i := 1; i < group.Size(); i++ {
				buf, _ := group.Recv(r, i, 4)
				if buf.Len() != int64(8) {
					t.Errorf("group message len %d", buf.Len())
				}
			}
		} else {
			group.Send(r, 0, 4, data.Synthetic(8))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitCommsAreIsolated(t *testing.T) {
	// Messages in one group must not be received by the same comm-rank in a
	// different group.
	w := newWorld(t, 64)
	err := w.Run(func(c *Comm, r *Rank) {
		group := c.Split(r, int64(r.ID()%2), int64(r.ID()))
		// Both groups: rank 1 sends to rank 0 with the same tag.
		switch group.Rank(r) {
		case 1:
			group.Send(r, 0, 11, data.FromBytes([]byte{byte(r.ID())}))
		case 0:
			buf, _ := group.Recv(r, 1, 11)
			sender := int(buf.Bytes()[0])
			// Group rank 1 of my group is world rank me+2.
			if sender != r.ID()+2 {
				t.Errorf("rank %d received from world rank %d, want %d", r.ID(), sender, r.ID()+2)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicTimes(t *testing.T) {
	run := func() float64 {
		w := newWorld(t, 256)
		var end float64
		err := w.Run(func(c *Comm, r *Rank) {
			if r.ID()%2 == 0 && r.ID()+1 < c.Size() {
				c.Send(r, r.ID()+1, 1, data.Synthetic(1<<20))
			} else if r.ID()%2 == 1 {
				c.Recv(r, r.ID()-1, 1)
			}
			c.Barrier(r)
			if r.ID() == 0 {
				end = r.Now()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return end
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("identical runs diverged: %v vs %v", a, b)
	}
}

func TestLargerTransfersTakeLonger(t *testing.T) {
	elapsed := func(size int64) float64 {
		w := newWorld(t, 256)
		var e float64
		err := w.Run(func(c *Comm, r *Rank) {
			switch r.ID() {
			case 0:
				c.Send(r, 200, 1, data.Synthetic(size))
			case 200:
				c.Recv(r, 0, 1)
				e = r.Now()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	small, big := elapsed(1<<10), elapsed(16<<20)
	if big <= small {
		t.Fatalf("16 MiB (%v) not slower than 1 KiB (%v)", big, small)
	}
}

func TestBcastValueSharesObject(t *testing.T) {
	w := newWorld(t, 64)
	type payload struct{ x int }
	var seen []*payload
	err := w.Run(func(c *Comm, r *Rank) {
		var v any
		if r.ID() == 0 {
			v = &payload{x: 42}
		}
		got := c.BcastValueSized(r, 0, v, 64).(*payload)
		if got.x != 42 {
			t.Errorf("rank %d got %d", r.ID(), got.x)
		}
		seen = append(seen, got)
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range seen[1:] {
		if p != seen[0] {
			t.Fatal("BcastValueSized did not share one object")
		}
	}
}

func TestBcastValueSequentialCallsDoNotCross(t *testing.T) {
	// Two back-to-back BcastValueSized calls must deliver their own values
	// even when ranks progress at different speeds.
	w := newWorld(t, 32)
	err := w.Run(func(c *Comm, r *Rank) {
		var a, b any
		if r.ID() == 0 {
			a, b = "first", "second"
		}
		if r.ID()%3 == 1 {
			r.Proc().Sleep(0.5) // stagger entry
		}
		got1 := c.BcastValueSized(r, 0, a, 64)
		got2 := c.BcastValueSized(r, 0, b, 64)
		if got1 != "first" || got2 != "second" {
			t.Errorf("rank %d got %v/%v", r.ID(), got1, got2)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSharedComputesOnce(t *testing.T) {
	w := newWorld(t, 64)
	computed := 0
	err := w.Run(func(c *Comm, r *Rank) {
		v := c.Shared(r, func() any {
			computed++
			return 7
		}).(int)
		if v != 7 {
			t.Errorf("rank %d got %d", r.ID(), v)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if computed != 1 {
		t.Fatalf("compute ran %d times, want 1", computed)
	}
}

func TestSharedChargesNoTime(t *testing.T) {
	w := newWorld(t, 16)
	err := w.Run(func(c *Comm, r *Rank) {
		t0 := r.Now()
		c.Shared(r, func() any { return struct{}{} })
		if r.Now() != t0 {
			t.Errorf("Shared advanced simulated time by %v", r.Now()-t0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSharedSequencesIndependent(t *testing.T) {
	// Consecutive Shared calls resolve to distinct values per call site.
	w := newWorld(t, 16)
	err := w.Run(func(c *Comm, r *Rank) {
		a := c.Shared(r, func() any { return "a" }).(string)
		b := c.Shared(r, func() any { return "b" }).(string)
		if a != "a" || b != "b" {
			t.Errorf("rank %d: %s %s", r.ID(), a, b)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllgatherBytes(t *testing.T) {
	w := newWorld(t, 64)
	err := w.Run(func(c *Comm, r *Rank) {
		mine := []byte{byte(r.ID()), byte(r.ID() * 2)}
		if r.ID()%5 == 0 {
			mine = nil // some ranks contribute nothing
		}
		all := c.AllgatherBytes(r, mine)
		if len(all) != 64 {
			t.Errorf("got %d entries", len(all))
			return
		}
		for i, b := range all {
			if i%5 == 0 {
				if len(b) != 0 {
					t.Errorf("rank %d slot %d should be empty", r.ID(), i)
				}
				continue
			}
			if len(b) != 2 || b[0] != byte(i) || b[1] != byte(i*2) {
				t.Errorf("rank %d slot %d = %v", r.ID(), i, b)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendBusySerializesConsecutiveIsends(t *testing.T) {
	// A burst of Isends from one rank serializes on its messaging pipeline:
	// the local completion times must be strictly increasing.
	w := newWorld(t, 64)
	err := w.Run(func(c *Comm, r *Rank) {
		switch r.ID() {
		case 0:
			var last float64
			for i := 0; i < 5; i++ {
				req := c.Isend(r, 1, 7, data.Synthetic(8<<20))
				if lt := req.LocalTime(); lt <= 0 {
					t.Errorf("send %d local time %v", i, lt)
				}
				req.Wait(r.Proc())
				if r.Now() <= last {
					t.Errorf("send %d completed at %v, not after %v", i, r.Now(), last)
				}
				last = r.Now()
			}
		case 1:
			for i := 0; i < 5; i++ {
				c.Recv(r, 0, 7)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWorldRankTranslation(t *testing.T) {
	w := newWorld(t, 64)
	err := w.Run(func(c *Comm, r *Rank) {
		sub := c.Split(r, int64(r.ID()%4), int64(r.ID()))
		me := sub.Rank(r)
		if got := sub.WorldRank(me); got != r.ID() {
			t.Errorf("WorldRank(%d) = %d, want %d", me, got, r.ID())
		}
		other := &Rank{id: 1 << 20} // not a member of anything
		if sub.Rank(other) != -1 {
			t.Error("non-member had a rank")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRecvPostedBeforeSends has rank 0 wait for rank 2's message before
// either sender has sent, while rank 1's arrives first: the early arrival
// waits in the inbox for the later receive, and each receive matches its
// own source's message.
func TestRecvPostedBeforeSends(t *testing.T) {
	w := newWorld(t, 64)
	err := w.Run(func(c *Comm, r *Rank) {
		switch r.ID() {
		case 0:
			bufB, srcB := c.Recv(r, 2, 5)
			bufA, srcA := c.Recv(r, 1, 5)
			if srcA != 1 || srcB != 2 {
				t.Errorf("sources %d/%d", srcA, srcB)
			}
			if bufA.Bytes()[0] != 'a' || bufB.Bytes()[0] != 'b' {
				t.Errorf("payloads %q %q", bufA.Bytes(), bufB.Bytes())
			}
		case 1:
			r.Proc().Sleep(0.5)
			c.Send(r, 0, 5, data.FromBytes([]byte{'a'}))
		case 2:
			r.Proc().Sleep(1.0)
			c.Send(r, 0, 5, data.FromBytes([]byte{'b'}))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRecvAnySourcePosted has an AnySource receive posted before its one
// sender sends: the wake reports the sender's comm rank.
func TestRecvAnySourcePosted(t *testing.T) {
	w := newWorld(t, 64)
	err := w.Run(func(c *Comm, r *Rank) {
		switch r.ID() {
		case 0:
			_, src := c.Recv(r, AnySource, 6)
			if src != 3 {
				t.Errorf("src %d", src)
			}
		case 3:
			r.Proc().Sleep(0.5)
			c.Send(r, 0, 6, data.Synthetic(16))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvBadSourcePanics(t *testing.T) {
	w := newWorld(t, 64)
	err := w.Run(func(c *Comm, r *Rank) {
		if r.ID() != 0 {
			return
		}
		defer func() {
			if recover() == nil {
				t.Error("Recv from out-of-range rank did not panic")
			}
		}()
		c.Recv(r, 99, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRecvTimeoutExpires checks a RecvSeq receive whose deadline passes
// with no sender: it ends with no payload and ok false, no earlier than
// the deadline.
func TestRecvTimeoutExpires(t *testing.T) {
	w := newWorld(t, 256)
	err := w.Run(func(c *Comm, r *Rank) {
		if r.ID() != 3 {
			return
		}
		t0 := r.Now()
		buf, ok := recvOne(c, r, 0, 9, 0.75) // nobody ever sends
		if ok {
			t.Errorf("timed-out receive reported ok (%d bytes)", buf.Len())
		}
		if buf.Len() != 0 {
			t.Errorf("timed-out receive returned %d bytes, want 0", buf.Len())
		}
		if got := r.Now() - t0; got < 0.75 {
			t.Errorf("timeout returned after %.3fs, want >= 0.75s", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRecvTimeoutDeliveredInTime checks a RecvSeq receive whose message
// beats its deadline: it returns the payload with ok true.
func TestRecvTimeoutDeliveredInTime(t *testing.T) {
	w := newWorld(t, 256)
	err := w.Run(func(c *Comm, r *Rank) {
		switch r.ID() {
		case 0:
			c.Send(r, 3, 9, data.Synthetic(2048))
		case 3:
			buf, ok := recvOne(c, r, 0, 9, 5.0)
			if !ok {
				t.Error("receive timed out despite a prompt send")
			}
			if buf.Len() != 2048 {
				t.Errorf("got len=%d, want 2048", buf.Len())
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRecvTimeoutStaleTimerHarmless pins the deadline cancellation rule: a
// timer from a receive that completed must not cancel a later receive, and
// a message that arrives after its window landed in the inbox, where the
// next matching receive finds it. Both receives are RecvSeq sequences, so
// the stale timer fires into the rank's recvWant between sequences.
func TestRecvTimeoutStaleTimerHarmless(t *testing.T) {
	w := newWorld(t, 256)
	err := w.Run(func(c *Comm, r *Rank) {
		switch r.ID() {
		case 0:
			c.Send(r, 3, 9, data.Synthetic(1024)) // arrives promptly
			c.Send(r, 3, 11, data.Synthetic(512)) // tag 11 arrives while rank 3 sleeps
		case 3:
			if _, ok := recvOne(c, r, 0, 9, 2.0); !ok {
				t.Fatal("first receive should complete well inside its window")
			}
			// Sleep past the first receive's timer so it fires while no
			// receive is posted, then receive the second message: the stale
			// timer must not have disturbed anything.
			r.Proc().Sleep(3.0)
			buf, ok := recvOne(c, r, 0, 11, 2.0)
			if !ok || buf.Len() != 512 {
				t.Errorf("second receive after a stale timer: ok=%v len=%d", ok, buf.Len())
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
