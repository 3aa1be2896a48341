package bbuf

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/storage"
)

// bufferBW is a fleet node's absorption bandwidth (memory/NVRAM speed).
const bufferBW float64 = 2e9

// drainTarget is the deadline-aware scheduler's residency target: each
// drain's deadline is its absorb completion plus this many seconds.
const drainTarget float64 = 5

// fleet is the burst-buffer write-path policy: a set of buffer nodes on the
// ION/storage side of the machine, each with its own capacity, absorption
// pipe, and drain channel toward the shared servers. Two shapes exist:
//
//   - Private (FleetNodes == 0 or == NumPsets): one node per ION, each
//     serving only its own pset — the pre-fleet model. With the FIFO
//     scheduler this takes exactly the legacy code path and is pinned
//     byte-identical by the pre-refactor goldens.
//   - Shared (any other size): nodes are hosted on IONs spread evenly
//     across the machine and every pset may write to every node. Writes
//     stripe round-robin across the fleet with capacity-aware placement
//     (full or dead nodes are skipped; a write lands on a non-local node by
//     crossing the interconnect), and spill to the synchronous path only
//     when no node has room.
//
// Absorption counts as completion for the application (Sync and Close do
// not wait for drains — the buffer tier is the durability boundary, as in
// SCR-style multi-level checkpointing), so it never registers outstanding
// commits on the handle.
type fleet struct {
	cfg   Config
	sched Scheduler

	n        int            // fleet size
	private  bool           // one node per ION, pset-private (legacy shape)
	host     []int          // fleet node -> hosting ION
	hostedBy [][]int        // ION -> fleet nodes hosted there
	absorb   []*fabric.Pipe // per-node absorption pipe (memory-speed)
	drain    []*fabric.Pipe // per-node background drain pipe
	used     []int64        // per-node bytes buffered, awaiting drain
	epoch    []int          // per-node death epoch; stale drains check it
	nodeDead []bool         // per-node down flag
	cursor   []int          // per-ION round-robin placement cursor (shared shape)

	originDead []bool // per-ION down flag; a dead ION's pset spills while set

	// Reordering schedulers hold drains in a per-node backlog served by an
	// event-driven dispatcher; pass-through schedulers (FIFO) never touch
	// these.
	backlog      [][]pendingDrain
	busy         []bool    // per-node: a dispatched drain still owns the channel
	backlogBytes []int64   // per-node bytes enqueued but not yet dispatched
	planEnd      []float64 // per-node latest planned drain-landing time

	seq    int64 // fleet-wide drain admission counter
	stats  BufferStats
	onLost func(ion int, bytes int64, t float64)

	// Tenant attribution for the priority-by-tenant scheduler: the cluster
	// layer maps world ranks to tenant indices and assigns drain
	// priorities. Unset means single-tenant (tenant 0, priority 0).
	tenantOf func(rank int) int
	prio     map[int]int
}

// pendingDrain is one backlogged drain: the scheduler-visible request plus
// the storage plumbing needed to plan it when picked.
type pendingDrain struct {
	req Request
	h   *storage.Handle
	off int64
}

var _ storage.DataPath = (*fleet)(nil)

func (d *fleet) init(c *storage.Core) {
	if d.absorb != nil {
		return
	}
	psets := c.Machine().NumPsets()
	n := d.cfg.FleetNodes
	if n <= 0 {
		n = psets
	}
	d.n = n
	d.private = n == psets
	d.host = make([]int, n)
	d.hostedBy = make([][]int, psets)
	for i := 0; i < n; i++ {
		// Nodes spread evenly across the IONs; the private shape is the
		// identity mapping.
		h := i * psets / n
		d.host[i] = h
		d.hostedBy[h] = append(d.hostedBy[h], i)
	}
	d.absorb = make([]*fabric.Pipe, n)
	d.drain = make([]*fabric.Pipe, n)
	d.used = make([]int64, n)
	d.epoch = make([]int, n)
	d.nodeDead = make([]bool, n)
	d.cursor = make([]int, psets)
	d.originDead = make([]bool, psets)
	d.backlog = make([][]pendingDrain, n)
	d.busy = make([]bool, n)
	d.backlogBytes = make([]int64, n)
	d.planEnd = make([]float64, n)
	for ion := 0; ion < psets; ion++ {
		d.cursor[ion] = ion % n
	}
	// The private shape keeps the legacy per-ION pipe names so existing
	// traces (and anyone grepping them) read unchanged.
	name := func(prefix string, i int) string {
		if d.private {
			return fmt.Sprintf("%s/ion%d", prefix, i)
		}
		return fmt.Sprintf("%s/node%d", prefix, i)
	}
	for i := 0; i < n; i++ {
		d.absorb[i] = fabric.NewPipe(name("bb", i), 0, bufferBW)
		d.drain[i] = fabric.NewPipe(name("bbdrain", i), 0, d.cfg.DrainBW)
	}
	if rec, layer := c.Recorder(); rec != nil {
		for i := 0; i < n; i++ {
			d.absorb[i].Instrument(rec, layer, "bb.absorb", i)
			d.drain[i].Instrument(rec, layer, "bb.drain", i)
		}
	}
}

// place picks the fleet node for an n-byte write from ion, or -1 when the
// write must spill. The private shape considers only the pset's own node;
// the shared shape stripes round-robin from the ION's cursor, skipping dead
// and full nodes.
func (d *fleet) place(ion int, n int64) int {
	if d.private {
		node := ion
		if d.nodeDead[node] || d.used[node]+n > d.cfg.BufferPerION {
			return -1
		}
		return node
	}
	start := d.cursor[ion]
	for k := 0; k < d.n; k++ {
		node := (start + k) % d.n
		if d.nodeDead[node] || d.used[node]+n > d.cfg.BufferPerION {
			continue
		}
		d.cursor[ion] = (node + 1) % d.n
		return node
	}
	return -1
}

// priority resolves the drain priority of a world rank's tenant.
func (d *fleet) priority(rank int) int {
	if d.tenantOf == nil {
		return 0
	}
	return d.prio[d.tenantOf(rank)]
}

// ionDown loses every fleet node hosted on the dead ION: everything
// absorbed but not yet drained — drains in flight and backlogged alike — is
// gone. The loss is aggregated across the ION's nodes into one OnLost
// report (one fault event, one number for the recovery layer), and each
// node's epoch bump voids in-flight completion callbacks so the accounting
// cannot double-free. The pset itself spills to the synchronous path while
// its ION is down.
func (d *fleet) ionDown(i int, t float64) {
	d.originDead[i] = true
	var lost int64
	for _, node := range d.hostedBy[i] {
		d.nodeDead[node] = true
		lost += d.used[node]
		d.used[node] = 0
		d.backlog[node] = nil
		d.backlogBytes[node] = 0
		d.epoch[node]++
	}
	if lost > 0 {
		d.stats.LostBytes += lost
		d.stats.LossEvents++
		if d.onLost != nil {
			d.onLost(i, lost, t)
		}
	}
}

// ionRestore brings the ION's pset and hosted fleet nodes back.
func (d *fleet) ionRestore(i int) {
	d.originDead[i] = false
	for _, node := range d.hostedBy[i] {
		d.nodeDead[node] = false
	}
}

// Commit implements storage.DataPath. A write that fits a fleet node is
// absorbed at memory speed and drained in the background; one that no node
// can hold takes the synchronous stripe path (storage.StripeSync) end to
// end, exactly like a cache-off PVFS write.
func (d *fleet) Commit(c *storage.Core, h *storage.Handle, rank int, streamEnd float64, off, n int64) func(*sim.Proc) error {
	d.init(c)
	ion := c.Machine().PsetOfRank(rank)
	node := -1
	if !d.originDead[ion] && d.cfg.BufferPerION > 0 {
		node = d.place(ion, n)
	}
	if node < 0 {
		// Fleet full — or a dead ION under fault injection, which degrades
		// its whole pset to the synchronous path until it restores.
		d.stats.SpilledBytes += n
		if rec, layer := c.Recorder(); rec != nil {
			rec.Instant(layer, "bb.spill", ion, streamEnd)
		}
		return storage.StripeSync{}.Commit(c, h, rank, streamEnd, off, n)
	}
	d.used[node] += n
	if d.used[node] > d.stats.PeakUsedBytes {
		d.stats.PeakUsedBytes = d.used[node]
	}
	d.stats.AbsorbedBytes += n
	// The buffer ingests the stream as it delivers; the caller perceives
	// the later of stream completion and the buffer's own serialization.
	start := streamEnd - float64(n)/d.cfg.ClientStreamBW
	if now := c.Kernel().Now(); start < now {
		start = now
	}
	if host := d.host[node]; host != ion {
		// A non-local node: the write crosses the interconnect from the
		// origin ION before the node's buffer can ingest it.
		start = c.Machine().Eth.Transfer(start, ion, n)
	}
	_, absorbEnd := d.absorb[node].Transfer(start, n)
	if absorbEnd < streamEnd {
		absorbEnd = streamEnd
	}
	if rec, layer := c.Recorder(); rec != nil {
		rec.Counter(layer, "bb.occupancy", node, absorbEnd, float64(d.used[node]))
	}
	d.submit(c, h, node, rank, absorbEnd, off, n)
	// Absorption counts as completion: drain failures are background loss,
	// accounted in BufferStats, never surfaced to the writer.
	return func(p *sim.Proc) error {
		p.SleepUntil(absorbEnd)
		return nil
	}
}

// submit routes an absorbed write to the node's drain channel. Pass-through
// schedulers (FIFO) plan the drain immediately — the drain pipe's
// arithmetic FIFO is the queue, exactly the legacy path. Reordering
// schedulers append to the node's backlog and let the dispatcher pick.
func (d *fleet) submit(c *storage.Core, h *storage.Handle, node, rank int, ready float64, off, n int64) {
	if !d.sched.Queued() {
		d.drainOut(c, h, node, ready, off, n)
		return
	}
	d.seq++
	d.backlog[node] = append(d.backlog[node], pendingDrain{
		req: Request{
			Seq: d.seq, Priority: d.priority(rank),
			Bytes: n, Ready: ready, Deadline: ready + drainTarget,
		},
		h: h, off: off,
	})
	d.backlogBytes[node] += n
	if b := d.backlogBytes[node]; b > d.stats.PeakBacklogBytes {
		d.stats.PeakBacklogBytes = b
	}
	if rec, layer := c.Recorder(); rec != nil {
		rec.Counter(layer, "bb.backlog", node, ready, float64(d.backlogBytes[node]))
	}
	d.pump(c, node)
}

// pump dispatches the scheduler's next pick onto the node's drain channel.
// One drain owns the channel at a time; when its pipe time frees, a kernel
// event clears the busy flag and pumps again, so the backlog between those
// events is what the scheduler genuinely gets to reorder.
func (d *fleet) pump(c *storage.Core, node int) {
	if d.busy[node] || len(d.backlog[node]) == 0 {
		return
	}
	view := make([]Request, len(d.backlog[node]))
	for i, pr := range d.backlog[node] {
		view[i] = pr.req
	}
	i := d.sched.Pick(view)
	pr := d.backlog[node][i]
	d.backlog[node] = append(d.backlog[node][:i], d.backlog[node][i+1:]...)
	d.backlogBytes[node] -= pr.req.Bytes
	free := d.drainOut(c, pr.h, node, pr.req.Ready, pr.off, pr.req.Bytes)
	d.busy[node] = true
	if now := c.Kernel().Now(); free < now {
		free = now
	}
	c.Kernel().At(free, func() {
		d.busy[node] = false
		d.pump(c, node)
	})
}

// drainOut plans the background drain of an absorbed write: the node's
// drain pacing, the hosting ION's Ethernet hop, then revolution-grouped
// striped server commits — the same shared-array charging as a foreground
// commit, just decoupled from the application. Buffer space frees when the
// drain lands. It returns the time the node's drain channel frees (the
// pipe's serialization point, not the landing).
func (d *fleet) drainOut(c *storage.Core, h *storage.Handle, node int, ready float64, off, n int64) float64 {
	drainStart, drainFree := d.drain[node].Transfer(ready, n)
	// Past a server the retry budget cannot reach, the rest of the drain
	// cannot land and its bytes are lost.
	done, stop, _ := c.CommitStriped(h.File(), drainStart, d.cfg.DrainBW, d.host[node], ready, off, n)
	lost := off + n - stop
	if done > d.planEnd[node] {
		d.planEnd[node] = done
	}
	ep := d.epoch[node]
	c.Kernel().At(done, func() {
		if d.epoch[node] != ep {
			// The node's host ION died while this drain was in flight;
			// ionDown already wrote the whole buffer off as lost.
			return
		}
		d.used[node] -= n
		d.stats.DrainedBytes += n - lost
		d.stats.LostBytes += lost
		if lost > 0 {
			d.stats.LossEvents++
			if d.onLost != nil {
				d.onLost(d.host[node], lost, done)
			}
		}
		if done > d.stats.LastDrainEnd {
			d.stats.LastDrainEnd = done
		}
		if rec, layer := c.Recorder(); rec != nil {
			rec.Counter(layer, "bb.occupancy", node, done, float64(d.used[node]))
		}
	})
	return drainFree
}

// drainHorizon is the time by which everything absorbed so far is expected
// to have drained: each node's latest planned landing, plus a bandwidth
// estimate for bytes still backlogged behind a reordering scheduler. The
// recovery layer uses it to defer epoch seals past the fleet's drain.
func (d *fleet) drainHorizon(now float64) float64 {
	h := now
	for node := 0; node < d.n; node++ {
		nh := d.planEnd[node]
		if nh < now {
			nh = now
		}
		if d.backlogBytes[node] > 0 {
			nh += float64(d.backlogBytes[node]) / d.cfg.DrainBW
		}
		if nh > h {
			h = nh
		}
	}
	return h
}

// Read implements storage.DataPath: restarts read from the shared servers
// (drains have long since landed by restart time), over the standard
// striped return path.
func (d *fleet) Read(p *sim.Proc, c *storage.Core, h *storage.Handle, rank int, off, n int64) error {
	return c.ChargeStripedRead(p, h.File(), rank, off, n)
}
