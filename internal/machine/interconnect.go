package machine

import (
	"repro/internal/fabric"
	"repro/internal/trace"
)

// Interconnect is the link-graph cost engine: it prices messages over any
// Topology's routes with per-directed-link FIFO contention and the same
// virtual cut-through approximation the torus fabric has always used — the
// head of a message pays per-hop latency and queueing on every link of the
// route, while the body's serialization is charged once (at the bottleneck)
// and recorded as occupancy on every traversed link.
//
// The arithmetic is a field-for-field port of the former fabric.Torus
// engine; on the torus topology it performs the identical float operations
// in the identical order, which is what keeps the pre-refactor goldens
// byte-identical.
type Interconnect struct {
	topo Topology
	cfg  fabric.LinkConfig

	linkFree   []float64 // per directed link: time it next becomes free
	injectFree []float64 // per node: injection DMA next free

	// Transfer scratch, reused across calls (the kernel serializes them).
	routeBuf []int

	rec      *trace.Recorder // nil = no tracing
	msgsCtr  string          // "<topology>.msgs", precomputed
	bytesCtr string          // "<topology>.bytes"
}

// NewInterconnect builds the contention engine over a topology.
func NewInterconnect(t Topology, cfg fabric.LinkConfig) *Interconnect {
	return &Interconnect{
		topo:       t,
		cfg:        cfg,
		linkFree:   make([]float64, t.NumLinks()),
		injectFree: make([]float64, t.Nodes()),
		msgsCtr:    t.Name() + ".msgs",
		bytesCtr:   t.Name() + ".bytes",
	}
}

// Instrument attaches a trace recorder. Interconnect traffic is far too
// dense for per-message spans (one per MPI message), so only aggregate
// message/byte counters are kept, named after the topology ("torus.msgs").
func (ic *Interconnect) Instrument(rec *trace.Recorder) { ic.rec = rec }

// Inject models the sender-side cost of handing size bytes to the network
// DMA from node src starting at now. It returns when the local send
// completes — the moment a non-blocking send's buffer is reusable and
// MPI_Isend-style calls are "perceived" as done by the application.
func (ic *Interconnect) Inject(now float64, src int, size int64) (injectDone float64) {
	start := now + fabric.InjectLat
	if ic.injectFree[src] > start {
		start = ic.injectFree[src]
	}
	done := start + float64(size)/ic.cfg.InjectBW
	ic.injectFree[src] = done
	return done
}

// Transfer routes size bytes from node src to node dst starting at the given
// injection-complete time and returns the arrival time at dst. Transfers
// between a node and itself pay only injection (handled by the caller) and a
// single hop latency for the local loopback.
func (ic *Interconnect) Transfer(start float64, src, dst int, size int64) (arrival float64) {
	return ic.transfer(&ic.routeBuf, start, src, dst, size)
}

// transfer is Transfer with the route computed into *routeBuf.
func (ic *Interconnect) transfer(routeBuf *[]int, start float64, src, dst int, size int64) (arrival float64) {
	if ic.rec != nil {
		ic.rec.Add(trace.LayerFabric, ic.msgsCtr, 1)
		ic.rec.Add(trace.LayerFabric, ic.bytesCtr, size)
	}
	if src == dst {
		return start + fabric.HopLatency
	}
	*routeBuf = ic.topo.AppendRoute((*routeBuf)[:0], src, dst)
	return ic.priceRoute(*routeBuf, start, size)
}

// priceRoute runs the contention arithmetic over an already-computed route.
func (ic *Interconnect) priceRoute(route []int, start float64, size int64) (arrival float64) {
	head := start
	// Head flit traverses each link, queueing behind earlier messages.
	for _, idx := range route {
		if ic.linkFree[idx] > head {
			head = ic.linkFree[idx]
		}
		head += fabric.HopLatency
	}
	ser := float64(size) / ic.cfg.LinkBW
	arrival = head + ser
	// The body occupies every traversed link for its serialization time.
	for _, idx := range route {
		ic.linkFree[idx] = arrival
	}
	return arrival
}

// Port is a lane-private routing context over the shared engine for the
// partitioned kernel: its own route scratch, so concurrent lanes never
// share a buffer (topologies are stateless). The contention state (link and
// injection frontiers) stays on the engine — the kernel's route-safety gate
// (Machine.RouteSafePsets) guarantees concurrent lanes touch disjoint links
// and inject only from their own nodes, and exclusive-lane traffic never
// overlaps a window, so every link's update order matches the serial run.
type Port struct {
	ic       *Interconnect
	routeBuf []int
}

// NewPort returns a routing context safe to use from one kernel lane.
func (ic *Interconnect) NewPort() *Port { return &Port{ic: ic} }

// Inject is Interconnect.Inject through the port. The injection frontier is
// per source node, which belongs to exactly one lane.
func (p *Port) Inject(now float64, src int, size int64) (injectDone float64) {
	return p.ic.Inject(now, src, size)
}

// Transfer is Interconnect.Transfer through the port's private route
// scratch. Counter tracing is safe here: the kernel runs lanes on a single
// worker whenever a recorder is attached.
func (p *Port) Transfer(start float64, src, dst int, size int64) (arrival float64) {
	return p.ic.transfer(&p.routeBuf, start, src, dst, size)
}
