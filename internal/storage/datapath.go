package storage

import "repro/internal/sim"

// callWait tracks the blocks of one WriteAt call for synchronous commits.
type callWait struct {
	remaining int
	proc      *sim.Proc
	err       error // first commit failure of the call
}

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
// [off,off+n).
func (d *BlockPipeline) Commit(c *Core, h *Handle, rank int, streamEnd float64, off, n int64) func(*sim.Proc) error {
	client := c.m.PsetOfRank(rank)
	ion := client
	streamBase := streamEnd - float64(n)/c.cfg.ClientStreamBW
	cw := &callWait{}
	now := c.m.K.Now()

	// Collect the block sub-ranges of the write.
	type blk struct {
		b      int64
		lo, hi int64
		pace   float64 // earliest departure from the client stream
	}
	var blks []blk
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
		blks = append(blks, blk{b: b, lo: lo, hi: hi, pace: pace})
	}
	cw.remaining = len(blks)
	for range blks {
		h.AddOutstanding(client)
	}

	fileSize := h.f.store.Size()
	// commitBlock performs block i's Ethernet hop and server commit; with
	// the write-behind cache the next block departs as soon as the stream
	// delivers it, while cache-off chains each block behind the previous
	// block's server acknowledgement.
	var commitBlock func(i int)
	commitBlock = func(i int) {
		bl := blks[i]
		span := bl.hi - bl.lo
		k := c.m.K
		srv, fdelay, ferr := c.PlanServer(h.f, bl.b, k.Now())
		// retire completes block i at time e, wakes drained waiters, and (on
		// the cache-off path) launches the next block. Failed blocks retire
		// through the same bookkeeping so Sync/Close never hang on them.
		retire := func(e float64) {
			c.ScheduleDrain(e)
			k.At(e, func() {
				cw.remaining--
				h.DoneOutstanding(client)
				if cw.remaining == 0 && cw.proc != nil {
					cw.proc.Unpark()
				}
				if !d.WriteBehind && i+1 < len(blks) {
					// No cache: the client may not stream the next block until
					// this one is acknowledged, so the next departure is the
					// ack plus that block's own stream serialization.
					nb := blks[i+1]
					next := c.m.K.Now() + float64(nb.hi-nb.lo)/c.cfg.ClientStreamBW
					c.m.K.At(next, func() { commitBlock(i + 1) })
				}
			})
		}
		if ferr != nil {
			// The block's servers are gone: the write-behind cache discards
			// the block after the detection/retry delay and the handle
			// remembers the loss for Sync/Close to surface.
			cw.err = ferr
			h.setCommitErr(ferr)
			retire(k.Now() + fdelay)
			return
		}
		partial := span < c.cfg.BlockSize && (bl.lo%c.cfg.BlockSize != 0 || bl.hi%c.cfg.BlockSize != 0) && bl.hi < fileSize
		ethEnd := c.m.Eth.Transfer(k.Now()+fdelay, ion, span)
		// A partial write inside an existing block forces the server to
		// read-modify-write the whole file system block.
		work := span
		if partial {
			work = c.cfg.BlockSize
		}
		_, e := srv.pipe.Transfer(ethEnd, work)
		e += c.DrawSpike(srv, c.SpikeProb())
		retire(e)
	}
	if d.WriteBehind {
		for i := range blks {
			i := i
			c.m.K.At(blks[i].pace, func() { commitBlock(i) })
		}
	} else if len(blks) > 0 {
		c.m.K.At(blks[0].pace, func() { commitBlock(0) })
	}
	return func(p *sim.Proc) error {
		// Return once the ION has the data; with write-behind, Sync/Close
		// wait for the commits, otherwise the caller blocks here until
		// every block of this call is durable.
		p.SleepUntil(streamEnd)
		if !d.WriteBehind {
			if cw.remaining > 0 {
				cw.proc = p
				p.Park()
			}
			return cw.err
		}
		return nil
	}
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
func (StripeSync) Commit(c *Core, h *Handle, rank int, streamEnd float64, off, n int64) func(*sim.Proc) error {
	streamBase := streamEnd - float64(n)/c.cfg.ClientStreamBW
	commitEnd, _, cerr := c.CommitStriped(h.f, streamBase, c.cfg.ClientStreamBW, c.m.PsetOfRank(rank), streamBase, off, n)
	if cerr != nil {
		// Synchronous commit against dead servers: the caller perceives
		// the detection/retry delay, then the write fails.
		h.setCommitErr(cerr)
	}
	// Cache off: synchronous completion.
	return func(p *sim.Proc) error {
		p.SleepUntil(commitEnd)
		return cerr
	}
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
