package mpi

import (
	"repro/internal/data"
	"repro/internal/trace"
)

// Sequences. IsendWaitSeq and RecvSeq are a run of point-to-point calls
// that a rank's own loop would make back to back, with only rank-private
// work between them: rbIO's worker hand-off and its writer's aggregation.
// The rank awaits the run as its continuation from the start
// (sim.Proc.AwaitNow), every call's steps run in the slot where the loop
// would have resumed, and the interface the caller passes does the loop's
// work between calls there. The rank's process resumes once, when the run
// ends (DESIGN §5, "Folded waits").

// SendSeq supplies the sends of IsendWaitSeq and takes their results. Its
// methods run as the rank's continuation, at the instants the loop of
// Isend-then-Wait calls they replace would have run the same code.
type SendSeq interface {
	// SendMsg returns the tag and payload of r's send i, as it starts.
	SendMsg(r *Rank, i int) (tag int, buf data.Buf)
	// Sent reports r's send i's start and local time (its request's
	// LocalTime) once its wait ended.
	Sent(r *Rank, i int, start, local float64)
}

// RecvSeq supplies the receives of Comm.RecvSeq and takes their results.
// Its methods run as the rank's continuation, at the instants the loop of
// blocking receives they replace would have run the same code.
type RecvSeq interface {
	// NextRecv returns r's next receive as it starts: its source comm
	// rank, tag and deadline in seconds, negative for none. ok false ends
	// the sequence.
	NextRecv(r *Rank) (src, tag int, timeout float64, ok bool)
	// Recvd reports r's receive started at start once it returned: its
	// payload, or ok false when its deadline passed first.
	Recvd(r *Rank, start float64, buf data.Buf, ok bool)
}

// seqStage is how far IsendWaitSeq's send in flight got.
type seqStage uint8

const (
	seqNext     seqStage = iota // the next send starts
	seqEntered                  // the send's shared section is entered; its call starts
	seqOverhead                 // the send's software overhead is due
	seqLocal                    // the send's local completion is due
)

// IsendWaitSeq makes n sends to communicator rank dst, each an Isend and a
// Wait on its request, with seq naming each send's tag and payload and
// taking its local time. The times, events, spans and messages are the
// loop's; the rank waits through the whole run as one continuation. A send
// whose route needs a shared section resumes the process, which enters
// the section and awaits the rest.
func (c *Comm) IsendWaitSeq(r *Rank, dst, n int, seq SendSeq) {
	op := c.getSend(r, dst)
	op.seq, op.n = seq, int32(n)
	for {
		r.proc.AwaitNow(op)
		if op.stage != seqEntered {
			break
		}
		r.proc.EnterShared()
	}
	op.release()
}

// next runs IsendWaitSeq on from one of the rank's wakes, or from its
// start, to the next wait. Each send is Isend and then Wait as the rank's
// code ran them: the overhead and the wait for local completion each end
// in the slot the rank's Sleep would have resumed it in, or at once when
// Sleep's fast path allows. It returns true when the run ended or the
// next send needs a shared section.
func (op *sendOp) next() bool {
	p := op.r.proc
	for {
		switch op.stage {
		case seqNext:
			if op.i == op.n {
				return true
			}
			tag, buf := op.seq.SendMsg(op.r, int(op.i))
			op.tag, op.buf = int32(tag), buf
			op.prev, _ = p.Enter(trace.LayerMPI)
			if op.shared {
				op.stage = seqEntered
				return true
			}
			fallthrough
		case seqEntered:
			op.start = op.r.Now()
			if !p.SleepFast(sendOverhead) {
				p.UnparkAfter(sendOverhead)
				op.stage = seqOverhead
				return false
			}
			fallthrough
		case seqOverhead:
			op.post()
			op.prev, op.t0 = p.Enter(trace.LayerMPI) // as Request.Wait
			if d := op.doneAt - p.Now(); d > 0 && !p.SleepFast(d) {
				p.UnparkAfter(d)
				op.stage = seqLocal
				return false
			}
			fallthrough
		case seqLocal:
			p.Leave(op.prev, trace.LayerMPI, "mpi.wait", op.r.id, op.t0, 0)
			op.seq.Sent(op.r, int(op.i), op.start, op.doneAt-op.start)
			op.i++
			op.stage = seqNext
		}
	}
}

// RecvSeq makes the receives seq names, each a blocking receive on c,
// with a deadline when seq gives one, and hands seq each result. The
// times, events and spans are the loop's; the rank waits through the whole
// run as one continuation, its recvWant.
func (c *Comm) RecvSeq(r *Rank, seq RecvSeq) {
	w := &r.want
	if w.posted {
		panic("mpi: rank has a receive already outstanding")
	}
	w.seq, w.c = seq, c
	r.proc.AwaitNow(w)
}

// next ends RecvSeq's receive in flight, if any, and starts receives until
// one must wait. A message already in the inbox is taken at once and its
// cost is slept through in place when Sleep's fast path allows, else in
// the resume the rank's own Sleep would have scheduled. It returns true
// when the sequence ended.
func (w *recvWant) next() bool {
	r := w.r
	for {
		if m := w.got; m != nil {
			r.delivered()
			buf := m.buf
			r.putMsg(m)
			r.proc.Leave(w.prev, trace.LayerMPI, "mpi.recv", r.id, w.t0, buf.Len())
			w.seq.Recvd(r, w.t0, buf, true)
		} else if w.timedOut {
			w.timedOut = false
			r.proc.Leave(w.prev, trace.LayerMPI, "mpi.recv.timeout", r.id, w.t0, 0)
			w.seq.Recvd(r, w.t0, data.Buf{}, false)
		}
		src, tag, timeout, ok := w.seq.NextRecv(r)
		if !ok {
			w.seq, w.c = nil, nil
			return true
		}
		w.prev, _ = r.proc.Enter(trace.LayerMPI)
		w.t0 = r.Now()
		srcWorld := w.c.srcWorld(src)
		if m := r.take(w.c.id, srcWorld, tag); m != nil {
			w.got, w.paid = m, true
			if d := r.recvCost(m.buf.Len()); !r.proc.SleepFast(d) {
				r.proc.UnparkAfter(d)
				return false
			}
			continue
		}
		r.post(w.c, srcWorld, tag)
		if timeout >= 0 {
			w.arm(timeout)
		}
		return false
	}
}
