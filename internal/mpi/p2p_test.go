package mpi

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/data"
	"repro/internal/fabric"
)

// TestSendResumesBehindQueuedEvents pins the one place Send's wait rule
// differs from Isend then Wait: a zero-byte send on an idle pipeline
// completes locally at its overhead's end. Rank 1 queues a wake for that
// instant after rank 0 started its send. Send resumes through the
// calendar, behind rank 1; StartIsendWaitSeq and Isend with Request.Wait carry
// on in the overhead's own slot, ahead of it.
func TestSendResumesBehindQueuedEvents(t *testing.T) {
	overhead := sendOverhead
	for _, tc := range []struct {
		name  string
		send  func(c *Comm, r *Rank)
		first int
	}{
		{"Send", func(c *Comm, r *Rank) { c.Send(r, 2, 1, data.Synthetic(0)) }, 1},
		{"IsendWaitSeq", func(c *Comm, r *Rank) {
			r.Proc().AwaitNow(c.StartIsendWaitSeq(r, 2, 1, &sizedSends{tag: 1, sizes: []int64{0}}))
		}, 0},
		{"Isend+Wait", func(c *Comm, r *Rank) { c.Isend(r, 2, 1, data.Synthetic(0)).Wait(r.Proc()) }, 0},
	} {
		w := newWorld(t, 64)
		var order []int
		err := w.Run(func(c *Comm, r *Rank) {
			switch r.ID() {
			case 0:
				tc.send(c, r)
			case 1:
				r.Proc().Sleep(overhead)
			case 2:
				c.Recv(r, 0, 1)
				return
			default:
				return
			}
			if r.Now() != overhead {
				t.Errorf("%s: rank %d carried on at %v, want the overhead's end %v", tc.name, r.ID(), r.Now(), overhead)
			}
			order = append(order, r.ID())
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(order) != 2 || order[0] != tc.first {
			t.Errorf("%s: ranks carried on in order %v, want rank %d first", tc.name, order, tc.first)
		}
	}
}

// TestPointToPointClosedForm checks uncontended point-to-point traffic on
// an idle torus against the closed form of the cost chain: the sender
// finishes at t0 + sendOverhead + n/LocalCopyBW (local completion); the
// payload arrives at localDone + InjectLat + n/InjectBW + hops·HopLatency
// + n/LinkBW; the receiver finishes at max(arrival, post) + recvOverhead +
// n/LocalCopyBW. It covers Send and a one-send StartIsendWaitSeq against a
// receive posted before the arrival, a one-receive RecvSeq whose deadline
// the message beats, and an inbox hit; and a RecvSeq receive whose
// deadline expires at post + timeout.
func TestPointToPointClosedForm(t *testing.T) {
	const (
		src, dst = 0, 200 // on different nodes
		t0       = 1e-3   // the send's start
		late     = 5e-3   // a receive posted after the arrival
		timeout  = 0.25
	)
	cfg := DefaultConfig()
	near := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-12*math.Abs(want) {
			t.Errorf("%s: %v, closed form %v", name, got, want)
		}
	}
	for _, n := range []int64{0, 400 << 10} {
		for _, blocking := range []bool{true, false} {
			for _, recv := range []string{"posted", "timeout", "inbox"} {
				name := fmt.Sprintf("n=%d blocking=%v %s", n, blocking, recv)
				w := newWorld(t, 256)
				link := w.M.Cfg.Link
				hops := w.M.Topo.Distance(w.M.NodeOfRank(src), w.M.NodeOfRank(dst))
				if hops == 0 {
					t.Fatal("sender and receiver share a node")
				}
				copyTime := float64(n) / cfg.LocalCopyBW
				localDone := t0 + sendOverhead + copyTime
				arrival := localDone + fabric.InjectLat + float64(n)/link.InjectBW +
					float64(hops)*fabric.HopLatency + float64(n)/link.LinkBW
				post := 0.0
				if recv == "inbox" {
					post = late
				}
				if (post < arrival) != (recv != "inbox") {
					t.Fatalf("%s: receive posted at %v, arrival %v", name, post, arrival)
				}
				var sent, got, local float64
				err := w.Run(func(c *Comm, r *Rank) {
					switch r.ID() {
					case src:
						r.Proc().SleepUntil(t0)
						if blocking {
							c.Send(r, dst, 3, data.Synthetic(n))
						} else {
							seq := &sizedSends{tag: 3, sizes: []int64{n}}
							r.Proc().AwaitNow(c.StartIsendWaitSeq(r, dst, 1, seq))
							local = seq.local[0]
						}
						sent = r.Now()
					case dst:
						r.Proc().SleepUntil(post)
						if recv == "timeout" {
							if _, ok := recvOne(c, r, src, 3, timeout); !ok {
								t.Errorf("%s: timed out", name)
							}
						} else {
							c.Recv(r, src, 3)
						}
						got = r.Now()
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				near(name+": sender done", sent, localDone)
				if !blocking {
					near(name+": IsendWaitSeq local time", local, sendOverhead+copyTime)
				}
				near(name+": receiver done", got, max(arrival, post)+recvOverhead+copyTime)
			}
		}
	}

	w := newWorld(t, 256)
	var expired float64
	err := w.Run(func(c *Comm, r *Rank) {
		if r.ID() != dst {
			return
		}
		r.Proc().SleepUntil(t0)
		if _, ok := recvOne(c, r, src, 3, timeout); ok {
			t.Error("a receive with a deadline and no sender reported a message")
		}
		expired = r.Now()
	})
	if err != nil {
		t.Fatal(err)
	}
	near("deadline expiry", expired, t0+timeout)
}

// sizedSends is a SendSeq shipping sizes[i] bytes with tag tag and keeping
// each send's local time.
type sizedSends struct {
	tag   int
	sizes []int64
	local []float64
}

func (s *sizedSends) SendMsg(_ *Rank, i int) (int, data.Buf) {
	return s.tag, data.Synthetic(s.sizes[i])
}

func (s *sizedSends) Sent(_ *Rank, _ int, _, local float64) { s.local = append(s.local, local) }

// oneRecv is a RecvSeq of one receive, keeping its result.
type oneRecv struct {
	src, tag int
	timeout  float64
	done, ok bool
	buf      data.Buf
}

func (o *oneRecv) NextRecv(*Rank) (int, int, float64, bool) {
	return o.src, o.tag, o.timeout, !o.done
}

func (o *oneRecv) Recvd(_ *Rank, _ float64, buf data.Buf, ok bool) {
	o.done, o.buf, o.ok = true, buf, ok
}

// recvOne receives from src with tag as a one-receive RecvSeq, giving up
// after timeout seconds when timeout >= 0.
func recvOne(c *Comm, r *Rank, src, tag int, timeout float64) (data.Buf, bool) {
	o := &oneRecv{src: src, tag: tag, timeout: timeout}
	c.RecvSeq(r, o)
	return o.buf, o.ok
}
