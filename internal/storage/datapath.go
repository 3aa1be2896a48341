package storage

import "repro/internal/sim"

// BlockPipeline is the GPFS-style data path. Each file system block leaves
// the client stream at its own delivery time (streamBase plus the
// cumulative bytes over the stream bandwidth); an event fires at that
// moment and only then claims the Ethernet and the block's server — so
// shared pipes serve requests in arrival order rather than letting one
// large write reserve far-future slots ahead of everyone else. Noise spikes
// are drawn per server request, amplified by the burst's client count at
// commit time.
//
// With WriteBehind (the ION-side cache) the caller returns once the ION
// holds the data; Sync/Close wait for the commits. Cache-off chains each
// block behind the previous block's server acknowledgement — the
// round-trip stall that made the paper call the GPFS/PVFS hardware
// comparison unfair.
type BlockPipeline struct {
	WriteBehind bool
}

var _ DataPath = (*BlockPipeline)(nil)

// Commit implements DataPath: schedules the per-block commits of
// [off,off+n), n > 0. The caller returns once the ION has the data; with
// write-behind, Sync/Close wait for the commits, otherwise the caller
// also waits until every block of this call is durable.
func (d *BlockPipeline) Commit(c *Core, h *Handle, rank int, streamEnd float64, off, n int64) Wait {
	client := c.m.PsetOfRank(rank)
	streamBase := streamEnd - float64(n)/c.cfg.ClientStreamBW
	now := c.m.K.Now()
	call := c.getCall()
	call.d, call.c, call.h, call.client = d, c, h, client
	// Collect the block sub-ranges of the write.
	var cum int64
	for b := off / c.cfg.BlockSize; b <= (off+n-1)/c.cfg.BlockSize; b++ {
		bStart := b * c.cfg.BlockSize
		bEnd := bStart + c.cfg.BlockSize
		lo, hi := max(off, bStart), min(off+n, bEnd)
		cum += hi - lo
		pace := streamBase + float64(cum)/c.cfg.ClientStreamBW
		if pace < now {
			pace = now
		}
		call.blks = append(call.blks, blockHook{call: call, i: len(call.blks), b: b, lo: lo, hi: hi, pace: pace})
	}
	call.remaining = len(call.blks)
	for range call.blks {
		h.AddOutstanding(client)
	}
	call.fileSize = h.f.store.Size()
	if d.WriteBehind {
		for i := range call.blks {
			c.m.K.AtHook(call.blks[i].pace, &call.blks[i])
		}
		return Wait{Until: streamEnd}
	}
	c.m.K.AtHook(call.blks[0].pace, &call.blks[0])
	return Wait{Until: streamEnd, call: call}
}

// blockCall is one WriteAt's blocks through a BlockPipeline, pooled per
// mount. Each block is a hook on it (blockHook), whose events are the
// ones a call's per-block closures used to schedule, at the same times
// and in the same order. It returns to its pool once its last block
// retired: at that retirement with write-behind, and once the caller's
// wait read it on the cache-off path.
type blockCall struct {
	d         *BlockPipeline
	c         *Core
	h         *Handle
	client    int   // the writer's pset, whose ION ships the blocks
	fileSize  int64 // the file's size before the write
	blks      []blockHook
	remaining int       // blocks not yet retired
	proc      *sim.Proc // the cache-off caller waiting for the last block
	err       error     // the call's latest commit failure
}

// blockHook is one block of a call: its first event commits the block,
// its second retires it.
type blockHook struct {
	call      *blockCall
	i         int
	b         int64
	lo, hi    int64
	pace      float64 // earliest departure from the client stream
	committed bool
}

// Fire implements sim.Hook.
func (bh *blockHook) Fire() {
	if !bh.committed {
		bh.committed = true
		bh.call.commit(bh)
		return
	}
	bh.call.retired(bh)
}

// getCall takes a block-pipeline call from the mount's pool.
func (c *Core) getCall() *blockCall {
	if n := len(c.calls); n > 0 {
		call := c.calls[n-1]
		c.calls = c.calls[:n-1]
		return call
	}
	return new(blockCall)
}

// commit performs block bl's Ethernet hop and server commit and schedules
// its retirement; with the write-behind cache the next block departs as
// soon as the stream delivers it, while cache-off chains each block
// behind the previous block's server acknowledgement.
func (call *blockCall) commit(bl *blockHook) {
	c := call.c
	k := c.m.K
	span := bl.hi - bl.lo
	srv, fdelay, ferr := c.PlanServer(call.h.f, bl.b, k.Now())
	if ferr != nil {
		// The block's servers are gone: the write-behind cache discards
		// the block after the detection/retry delay and the handle
		// remembers the loss for Sync/Close to surface. Failed blocks
		// retire through the same bookkeeping so Sync/Close never hang on
		// them.
		call.err = ferr
		call.h.setCommitErr(ferr)
		call.retire(bl, k.Now()+fdelay)
		return
	}
	bs := c.cfg.BlockSize
	partial := span < bs && (bl.lo%bs != 0 || bl.hi%bs != 0) && bl.hi < call.fileSize
	ethEnd := c.m.Eth.Transfer(k.Now()+fdelay, call.client, span)
	// A partial write inside an existing block forces the server to
	// read-modify-write the whole file system block.
	work := span
	if partial {
		work = bs
	}
	_, e := srv.pipe.Transfer(ethEnd, work)
	e += c.DrawSpike(srv, c.SpikeProb())
	call.retire(bl, e)
}

// retire schedules block bl's completion at time e.
func (call *blockCall) retire(bl *blockHook, e float64) {
	call.c.ScheduleDrain(e)
	call.c.m.K.AtHook(e, bl)
}

// retired completes block bl, wakes drained waiters, and (on the cache-off
// path) launches the next block.
func (call *blockCall) retired(bl *blockHook) {
	c := call.c
	call.remaining--
	call.h.DoneOutstanding(call.client)
	if call.remaining == 0 && call.proc != nil {
		call.proc.Unpark()
	}
	if !call.d.WriteBehind && bl.i+1 < len(call.blks) {
		// No cache: the client may not stream the next block until this
		// one is acknowledged, so the next departure is the ack plus that
		// block's own stream serialization.
		nb := &call.blks[bl.i+1]
		next := c.m.K.Now() + float64(nb.hi-nb.lo)/c.cfg.ClientStreamBW
		c.m.K.AtHook(next, nb)
	}
	if call.remaining == 0 && call.d.WriteBehind {
		call.release()
	}
}

// release returns a finished call to its mount's pool.
func (call *blockCall) release() {
	c := call.c
	blks := call.blks[:0]
	clear(call.blks)
	*call = blockCall{blks: blks}
	c.calls = append(c.calls, call)
}

// done ends the caller's wait, once the cache-off call's blocks all
// retired, and returns the write's error: the call's, which it then lets
// go, or Err.
func (w *Wait) done() error {
	call := w.call
	if call == nil {
		return w.Err
	}
	err := call.err
	call.release()
	return err
}

// Read implements DataPath: the symmetric striped return path.
func (d *BlockPipeline) Read(p *sim.Proc, c *Core, h *Handle, rank int, off, n int64) error {
	return c.ChargeStripedRead(p, h.f, rank, off, n)
}

// ChargeStripedRead charges the request-down/data-back path of a striped
// read: ship the request to the ION, fan out over the blocks' servers in
// parallel, then return over the Ethernet and the pset funnel. Under fault
// injection a block on an unreachable server charges the detection/retry
// delay and fails the read with a typed error.
func (c *Core) ChargeStripedRead(p *sim.Proc, f *File, rank int, off, n int64) error {
	c.ShipToION(p, rank, 256)
	end := p.Now()
	for b := off / c.cfg.BlockSize; b <= (off+n-1)/c.cfg.BlockSize; b++ {
		bStart := b * c.cfg.BlockSize
		lo, hi := max(off, bStart), min(off+n, bStart+c.cfg.BlockSize)
		srv, fdelay, ferr := c.PlanServer(f, b, p.Now())
		if ferr != nil {
			p.SleepUntil(p.Now() + fdelay)
			return ferr
		}
		_, e := srv.pipe.Transfer(p.Now()+fdelay, hi-lo)
		if e > end {
			end = e
		}
	}
	end = c.m.Eth.Transfer(end, c.m.PsetOfRank(rank), n)
	_, end2 := c.m.Tree.Pset(c.m.PsetOfRank(rank)).Transfer(end, n)
	p.SleepUntil(end2)
	return nil
}

// StripeSync is the PVFS-style data path: no client/ION cache, so every
// write is synchronous to the servers and the caller blocks for the full
// commit. Contiguous stripes bound for the same server are grouped into one
// request per server revolution to keep the op count linear in servers, not
// stripes (a 64 KiB stripe over a 160 MB write would otherwise cost
// thousands of micro-requests).
type StripeSync struct{}

var _ DataPath = StripeSync{}

// Commit implements DataPath: the full synchronous striped commit.
func (StripeSync) Commit(c *Core, h *Handle, rank int, streamEnd float64, off, n int64) Wait {
	streamBase := streamEnd - float64(n)/c.cfg.ClientStreamBW
	commitEnd, _, cerr := c.CommitStriped(h.f, streamBase, c.cfg.ClientStreamBW, c.m.PsetOfRank(rank), streamBase, off, n)
	if cerr != nil {
		// Synchronous commit against dead servers: the caller perceives
		// the detection/retry delay, then the write fails.
		h.setCommitErr(cerr)
	}
	// Cache off: synchronous completion.
	return Wait{Until: commitEnd, Err: cerr}
}

// CommitStriped lands n bytes at off of f on the striped servers one
// revolution at a time. The bytes leave at rate bytes per second from
// start through host ION's Ethernet hop; a revolution's servers carry
// span/NumServers each in parallel, so the busiest one is charged, with its
// noise spike. The commit retires at its last landing, no earlier than end,
// which it returns. When the retry budget cannot reach a revolution's
// server, the commit stops there: it returns the offset of the first byte
// that did not land and the error. Otherwise that offset is off+n.
func (c *Core) CommitStriped(f *File, start, rate float64, host int, end float64, off, n int64) (float64, int64, error) {
	spikeP := c.SpikeProb()
	ss := c.cfg.BlockSize
	revolution := ss * int64(len(c.servers))
	var cum int64
	var err error
	lo := off
	for lo < off+n {
		hi := min(off+n, (lo/revolution+1)*revolution)
		span := hi - lo
		cum += span
		deliver := start + float64(cum)/rate
		srv, fdelay, ferr := c.PlanServer(f, lo/ss, deliver)
		if ferr != nil {
			err = ferr
			if deliver+fdelay > end {
				end = deliver + fdelay
			}
			break
		}
		ethEnd := c.m.Eth.Transfer(deliver+fdelay, host, span)
		perServer := span / int64(len(c.servers))
		if perServer == 0 {
			perServer = span
		}
		_, e := srv.pipe.Transfer(ethEnd, perServer)
		e += c.DrawSpike(srv, spikeP)
		if e > end {
			end = e
		}
		lo = hi
	}
	c.ScheduleDrain(end)
	return end, lo, err
}

// Read implements DataPath: PVFS charges the request at the first stripe's
// server with the stripes' shares served in parallel.
func (StripeSync) Read(p *sim.Proc, c *Core, h *Handle, rank int, off, n int64) error {
	c.ShipToION(p, rank, 256)
	srv, fdelay, ferr := c.PlanServer(h.f, off/c.cfg.BlockSize, p.Now())
	if ferr != nil {
		p.SleepUntil(p.Now() + fdelay)
		return ferr
	}
	_, end := srv.pipe.Transfer(p.Now()+fdelay, n/int64(len(c.servers))+1)
	end = c.m.Eth.Transfer(end, c.m.PsetOfRank(rank), n)
	_, end2 := c.m.Tree.Pset(c.m.PsetOfRank(rank)).Transfer(end, n)
	p.SleepUntil(end2)
	return nil
}
