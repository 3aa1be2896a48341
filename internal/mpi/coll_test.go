package mpi

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/data"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// subComm returns the communicator of w's first n ranks, built directly so
// that making it costs no collective; the other ranks stay out of the way.
func subComm(w *World, n int) *Comm {
	members := make([]int, n)
	for i := range members {
		members[i] = w.base + i
	}
	return &Comm{w: w, id: w.newCommID(w.ranks[0]), members: members, ident: true, off: w.base, part: w.commPart(members)}
}

// treeCalls are the tree collectives, each called once with inputs that
// vary by rank (and a root other than 0 for Bcast, the one call that takes
// one).
var treeCalls = []struct {
	name string
	call func(c *Comm, r *Rank) string
}{
	{"Bcast", func(c *Comm, r *Rank) string {
		var buf data.Buf
		if c.Rank(r) == c.Size()-1 {
			buf = data.FromBytes([]byte("from the last rank"))
		}
		return string(c.Bcast(r, c.Size()-1, buf).Bytes())
	}},
	{"AllgatherInt64", func(c *Comm, r *Rank) string {
		return fmt.Sprint(c.AllgatherInt64(r, int64(c.Rank(r)*c.Rank(r))))
	}},
	{"AllgatherInt64Pair", func(c *Comm, r *Rank) string {
		return fmt.Sprint(c.AllgatherInt64Pair(r, int64(c.Rank(r)), int64(c.Rank(r)%3)))
	}},
	{"Split", func(c *Comm, r *Rank) string {
		me := c.Rank(r)
		s := c.Split(r, int64(me%3), int64(me))
		return fmt.Sprintf("%d of %d", s.Rank(r), s.Size())
	}},
	{"AllgatherBytes", func(c *Comm, r *Rank) string {
		return fmt.Sprintf("%q", c.AllgatherBytes(r, []byte(strings.Repeat("x", c.Rank(r)%5))))
	}},
}

// TestTreeCollectivesResumeOncePerCall pins the continuation design: a
// rank waits through every hop of a tree collective parked, and its
// process resumes exactly once per call. Every rank starts at the same
// instant, so each one waits at least once. The sharded runs keep the
// group inside one route-safe pset, whose hops all ride its lane; a hop
// that needs a shared section costs the process extra resumes.
func TestTreeCollectivesResumeOncePerCall(t *testing.T) {
	const ranks = 1024
	for _, workers := range []int{0, 2, 4} {
		for _, np := range []int{2, 3, 64, 100} {
			for _, tc := range treeCalls {
				woken := func(call bool) uint64 {
					w := NewWorld(newMachine(t, ranks, workers), DefaultConfig())
					c := subComm(w, np)
					if w.lanes != nil && w.lanePort(w.ranks[0], w.ranks[np-1]) == nil {
						t.Fatalf("ranks 0 and %d do not share a lane", np-1)
					}
					err := w.Run(func(_ *Comm, r *Rank) {
						if call && c.Rank(r) >= 0 {
							tc.call(c, r)
						}
					})
					if err != nil {
						t.Fatal(err)
					}
					return w.K.Woken()
				}
				if got := woken(true) - woken(false); got != uint64(np) {
					t.Errorf("workers=%d np=%d %s: %d resumes, want one per rank (%d)", workers, np, tc.name, got, np)
				}
			}
		}
	}
}

// The reference collectives: the hop-by-hop binomial gather and broadcast
// built from blocking Send and Recv, each rank's process resuming at every
// hop.

// refVals carries the reference collectives' host objects beside their
// messages, since Recv returns only the payload. A sender stores the value
// under its message's key before sending; the receiver takes it once Recv
// returns.
var refVals sync.Map

type refKey struct{ comm, tag, src, dst int }

func refSend(c *Comm, r *Rank, dst, tag int, buf data.Buf, val any) {
	refVals.Store(refKey{c.id, tag, c.Rank(r), dst}, val)
	c.newSend(r, dst, tag, buf, nil).wait()
}

func refRecv(c *Comm, r *Rank, src, tag int) (data.Buf, any) {
	buf, _ := c.Recv(r, src, tag)
	val, _ := refVals.LoadAndDelete(refKey{c.id, tag, src, c.Rank(r)})
	return buf, val
}

func refGather(c *Comm, r *Rank, v int64) []int64 {
	n, me := c.Size(), c.Rank(r)
	tag := c.nextCollTag(r)
	vals := []int64{v}
	for mask := 1; mask < n; mask <<= 1 {
		if me&mask != 0 {
			refSend(c, r, me-mask, tag, data.Synthetic(16*int64(len(vals))), vals)
			return nil
		}
		if me+mask < n {
			_, run := refRecv(c, r, me+mask, tag)
			vals = append(vals, run.([]int64)...)
		}
	}
	return vals
}

func refBcast(c *Comm, r *Rank, root int, buf data.Buf, val any) (data.Buf, any) {
	n := c.Size()
	if n == 1 {
		return buf, val
	}
	tag := c.nextCollTag(r)
	vrank := (c.Rank(r) - root + n) % n
	mask := 1
	for mask < n && vrank&mask == 0 {
		mask <<= 1
	}
	if vrank != 0 {
		buf, val = refRecv(c, r, (vrank-mask+root)%n, tag)
	}
	for m := mask >> 1; m >= 1; m >>= 1 {
		if child := vrank + m; child < n {
			refSend(c, r, (child+root)%n, tag, buf, val)
		}
	}
	return buf, val
}

func refAllgather(c *Comm, r *Rank, v int64) []int64 {
	vals := refGather(c, r, v)
	_, out := refBcast(c, r, 0, data.Synthetic(8*int64(c.Size())), vals)
	return out.([]int64)
}

func refAllgatherBytes(c *Comm, r *Rank, b []byte) [][]byte {
	n, me := c.Size(), c.Rank(r)
	tag := c.nextCollTag(r)
	vals := [][]byte{b}
	for mask := 1; mask < n; mask <<= 1 {
		if me&mask != 0 {
			c.Send(r, me-mask, tag, data.FromBytes(encodeBytesRange(me, vals)))
			vals = nil
			break
		}
		if me+mask < n {
			buf, _ := c.Recv(r, me+mask, tag)
			vals = appendBytesRange(vals, me+len(vals), buf.Bytes())
		}
	}
	var total int64
	for _, v := range vals {
		total += int64(len(v)) + 8
	}
	if me != 0 {
		vals = nil
	}
	_, out := refBcast(c, r, 0, data.Synthetic(total), vals)
	return out.([][]byte)
}

func refSplit(c *Comm, r *Rank, color, key int64) *Comm {
	colors := refAllgather(c, r, color)
	refGather(c, r, key)
	var children map[int64]*Comm
	if c.Rank(r) == 0 {
		children = c.children(r, colors)
	}
	_, v := refBcast(c, r, 0, data.Synthetic(8*int64(c.Size())), children)
	return v.(map[int64]*Comm)[color]
}

// treeAPI is one implementation of the tree collectives.
type treeAPI struct {
	bcast          func(c *Comm, r *Rank, root int, buf data.Buf, val any) (data.Buf, any)
	allgather      func(c *Comm, r *Rank, v int64) []int64
	allgatherBytes func(c *Comm, r *Rank, b []byte) [][]byte
	split          func(c *Comm, r *Rank, color, key int64) *Comm
}

var (
	liveAPI = treeAPI{(*Comm).bcast, (*Comm).AllgatherInt64, (*Comm).AllgatherBytes, (*Comm).Split}
	refAPI  = treeAPI{refBcast, refAllgather, refAllgatherBytes, refSplit}
)

// treeScenario runs every tree collective in turn on a group of np ranks,
// all starting at t=0, with point-to-point traffic in flight across and
// between the calls: a message to the right neighbour posted before each
// call and received after it, so it lands in the inbox mid-call, and a
// blocking ring shift between calls. The messages' sizes vary by rank, so
// the ranks enter each call at different times. It logs every rank's results and
// completion times, and the mpi.send and mpi.recv spans.
func treeScenario(t *testing.T, api treeAPI, ranks, np, workers int) (log, spans string) {
	k := sim.NewKernel()
	rec := trace.NewRecorder()
	k.SetRecorder(rec)
	m := machine.MustNew(k, xrand.New(1), machine.Intrepid(ranks))
	if workers > 0 {
		k.EnableSharding(m.NumPsets(), workers, Lookahead(m), 1)
	}
	w := NewWorld(m, DefaultConfig())
	c := subComm(w, np)
	lines := make(rankLog, ranks)
	err := w.Run(func(_ *Comm, r *Rank) {
		me := c.Rank(r)
		if me < 0 {
			return
		}
		right, left := (me+1)%np, (me+np-1)%np
		step := 0
		p2p := func() {
			step++
			// Sizes from 64 B to 384 KB skew the ranks by up to 16 µs, so
			// some tree messages wait in the inbox for their receive.
			req := c.Isend(r, right, step, data.Synthetic(int64(64<<(2*((me*step)%7)))))
			req.Wait(r.Proc())
		}
		settle := func() {
			buf, src := c.Recv(r, left, step)
			lines.add(r, w.base, "p2p %d: %d bytes from %d", step, buf.Len(), src)
		}
		p2p()
		buf, val := data.Buf{}, any(nil)
		if me == np-1 {
			buf, val = data.FromBytes([]byte("from the last rank")), "value"
		}
		buf, val = api.bcast(c, r, np-1, buf, val)
		lines.add(r, w.base, "bcast %q %v", buf.Bytes(), val)
		settle()
		p2p()
		lines.add(r, w.base, "allgather %v", api.allgather(c, r, int64(me*me)))
		c.Send(r, right, 100, data.Synthetic(8))
		c.Recv(r, left, 100)
		lines.add(r, w.base, "ring")
		settle()
		p2p()
		s := api.split(c, r, int64(me%3), int64(me))
		lines.add(r, w.base, "split %d of %d, comm %d", s.Rank(r), s.Size(), s.id)
		settle()
		p2p()
		lines.add(r, w.base, "allgatherBytes %q", api.allgatherBytes(c, r, []byte(strings.Repeat("y", me%4))))
		settle()
	})
	if err != nil {
		t.Fatal(err)
	}
	var sp []string
	for _, ev := range rec.Events() {
		if ev.Kind == trace.KindSpan && (ev.Name == "mpi.send" || ev.Name == "mpi.recv") {
			sp = append(sp, fmt.Sprintf("%s rank %d at %v for %v, %v bytes", ev.Name, ev.Track, ev.T, ev.Dur, ev.Value))
		}
	}
	if workers > 0 {
		// Lane recorders merge in no particular order.
		sort.Strings(sp)
	}
	return lines.String(), strings.Join(sp, "\n")
}

// TestTreeCollectivesMatchHopByHop checks the continuation-driven
// collectives against the hop-by-hop reference: identical per-rank results
// and completion times, and identical send and receive spans.
func TestTreeCollectivesMatchHopByHop(t *testing.T) {
	for _, tc := range []struct{ ranks, np, workers int }{
		{1024, 2, 0}, {1024, 3, 0}, {1024, 64, 0}, {1024, 100, 0},
		{1024, 1024, 0}, {1024, 1024, 2}, // every hop that leaves a pset needs a shared section
	} {
		wantLog, wantSpans := treeScenario(t, refAPI, tc.ranks, tc.np, tc.workers)
		gotLog, gotSpans := treeScenario(t, liveAPI, tc.ranks, tc.np, tc.workers)
		if gotLog != wantLog {
			t.Errorf("np=%d workers=%d: results differ from the hop-by-hop reference:\n%s\nwant\n%s", tc.np, tc.workers, gotLog, wantLog)
		}
		if gotSpans != wantSpans {
			t.Errorf("np=%d workers=%d: spans differ from the hop-by-hop reference:\n%s\nwant\n%s", tc.np, tc.workers, gotSpans, wantSpans)
		}
	}
}
