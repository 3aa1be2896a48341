// Package fabric models the shared-channel data-movement fabrics of a
// parallel machine's I/O path: the per-pset collective (tree) network that
// funnels I/O to the I/O nodes, and the 10-Gigabit Ethernet between I/O
// nodes and file servers. It also defines LinkConfig, the physical
// parameters of the compute interconnect, whose link-graph cost engine
// lives in internal/machine (Interconnect) so it can route over any
// topology.
//
// All fabrics use the same contention model: a transmission reserves each
// shared channel FIFO. A channel remembers when it next becomes free; a
// transfer arriving earlier waits.
//
// The model is arithmetic rather than event-per-hop: callers obtain the
// arrival time and sleep until it. That keeps 65,536-rank simulations at a
// handful of events per message.
package fabric

import (
	"fmt"

	"repro/internal/trace"
)

// Pipe is a single shared FIFO channel with fixed bandwidth and per-transfer
// latency: a tree-network uplink, an Ethernet NIC, a storage server port.
type Pipe struct {
	Latency float64 // seconds added to every transfer
	BW      float64 // bytes per second

	nextFree float64
	busy     float64 // cumulative seconds spent transmitting
	degrade  float64 // bandwidth multiplier while degraded; 0 means healthy

	// Tracing, set by Instrument; rec == nil (the default) disables it.
	rec        *trace.Recorder
	recLayer   trace.Layer
	recTrack   int
	recSpan    string // span name shared by pipes of the same class
	recBacklog string // counter name, precomputed so Transfer never concatenates
}

// NewPipe returns a pipe with the given latency (s) and bandwidth (B/s);
// name only labels the panic on a non-positive bandwidth.
func NewPipe(name string, latency, bw float64) *Pipe {
	if bw <= 0 {
		panic(fmt.Sprintf("fabric: pipe %q with non-positive bandwidth", name))
	}
	return &Pipe{Latency: latency, BW: bw}
}

// SetDegrade scales the pipe's effective bandwidth by factor for future
// transfers (fault injection: a flapping or half-duplex link). factor 0
// restores full bandwidth; a healthy pipe's arithmetic is untouched, so
// fault-free runs stay bit-identical.
func (p *Pipe) SetDegrade(factor float64) {
	if factor >= 1 {
		factor = 0
	}
	p.degrade = factor
}

// Instrument attaches a trace recorder to the pipe: every Transfer is
// recorded as one span under the given layer and shared span name (e.g.
// "ion.funnel"), on the given track (the pipe's instance index — pset,
// ION, server). Span names are shared across instances so the metrics
// table aggregates a pipe class into one row; the per-instance timeline
// stays separated by track.
func (p *Pipe) Instrument(rec *trace.Recorder, layer trace.Layer, span string, track int) {
	p.rec = rec
	p.recLayer = layer
	p.recSpan = span
	p.recBacklog = span + " backlog"
	p.recTrack = track
}

// bw returns the pipe's effective bandwidth under any active degradation.
func (p *Pipe) bw() float64 {
	if p.degrade > 0 {
		return p.BW * p.degrade
	}
	return p.BW
}

// Transfer reserves the pipe for size bytes starting no earlier than now and
// returns when the transfer begins and completes. The caller is responsible
// for sleeping until end.
func (p *Pipe) Transfer(now float64, size int64) (start, end float64) {
	start = now + p.Latency
	if p.nextFree > start {
		start = p.nextFree
	}
	dur := float64(size) / p.bw()
	end = start + dur
	p.nextFree = end
	p.busy += dur
	if p.rec != nil {
		p.rec.Span(p.recLayer, p.recSpan, p.recTrack, start, end, size)
		if wait := start - now - p.Latency; wait > 0 {
			// Queue depth proxy: how far behind real time this channel is.
			p.rec.Counter(p.recLayer, p.recBacklog, p.recTrack, now, wait)
		}
	}
	return start, end
}

// TransferExpress models a small transfer that interleaves with bulk
// traffic at packet granularity instead of queueing behind whole messages
// (control traffic, headers). It charges latency plus serialization and
// counts the busy time, but neither waits for nor advances the pipe's
// next-free time.
func (p *Pipe) TransferExpress(now float64, size int64) (start, end float64) {
	start = now + p.Latency
	dur := float64(size) / p.bw()
	p.busy += dur
	if p.rec != nil {
		p.rec.Span(p.recLayer, p.recSpan, p.recTrack, start, start+dur, size)
	}
	return start, start + dur
}

// BusyTime returns the cumulative transmission time carried by the pipe.
func (p *Pipe) BusyTime() float64 { return p.busy }

// NextFree returns the earliest time a new transfer could begin serializing.
func (p *Pipe) NextFree() float64 { return p.nextFree }

// LinkConfig holds the physical parameters of the compute interconnect's
// links, consumed by machine.Interconnect over whatever topology the
// machine composes.
type LinkConfig struct {
	LinkBW   float64 // bytes/s per direction per link (BG/P: 425 MB/s)
	InjectBW float64 // node DMA injection bandwidth, bytes/s
}

// The compute interconnect's latencies, seconds, the same on every
// topology.
const (
	HopLatency float64 = 100e-9 // per-hop router latency
	InjectLat  float64 = 2e-6   // software send overhead
)

// MinLatency returns the smallest virtual latency any message crossing at
// least hops links can experience: the software injection overhead plus the
// per-hop router delays. Serialization time only adds to it, so this is a
// safe conservative-lookahead floor for the partitioned simulation kernel.
func MinLatency(hops int) float64 {
	if hops < 1 {
		hops = 1
	}
	return InjectLat + float64(hops)*HopLatency
}

// DefaultLinkConfig returns Blue Gene/P torus parameters: 425 MB/s per link
// direction and DMA injection near memory speed.
func DefaultLinkConfig() LinkConfig {
	return LinkConfig{
		LinkBW:   425e6,
		InjectBW: 3.4e9,
	}
}

// TreeConfig holds the collective-network parameters.
type TreeConfig struct {
	BW float64 // per-pset tree bandwidth into the ION, bytes/s
}

// treeLatency is the collective network's traversal latency, seconds.
const treeLatency float64 = 4e-6

// DefaultTreeConfig returns BG/P collective network parameters (~850 MB/s
// per tree link; the link into the ION is the pset-wide funnel).
func DefaultTreeConfig() TreeConfig {
	return TreeConfig{BW: 850e6}
}

// Tree is the per-pset collective network: one shared funnel pipe per pset,
// since all compute nodes of a pset reach their ION over the same tree link.
type Tree struct {
	psets []*Pipe
}

// NewTree builds tree fabrics for n psets.
func NewTree(n int, cfg TreeConfig) *Tree {
	t := &Tree{psets: make([]*Pipe, n)}
	for i := range t.psets {
		t.psets[i] = NewPipe(fmt.Sprintf("tree/pset%d", i), treeLatency, cfg.BW)
	}
	return t
}

// Pset returns the funnel pipe of the given pset.
func (t *Tree) Pset(i int) *Pipe { return t.psets[i] }

// EthernetConfig holds the ION-to-storage network parameters.
type EthernetConfig struct {
	IONBw  float64 // per-ION 10GbE bandwidth, bytes/s
	CoreBW float64 // aggregate switch-core bandwidth, bytes/s
}

// The ION-to-storage network's per-transfer latencies, seconds.
const (
	ionLat  float64 = 30e-6 // an ION NIC's
	coreLat float64 = 10e-6 // the switching core's
)

// DefaultEthernetConfig returns Intrepid-like parameters: 10 GbE per ION and
// a switching core comfortably above the storage system's 47 GB/s write peak.
func DefaultEthernetConfig() EthernetConfig {
	return EthernetConfig{
		IONBw:  1.25e9,
		CoreBW: 64e9,
	}
}

// Ethernet models ION NICs plus the shared switching core between IONs and
// the file servers.
type Ethernet struct {
	cfg  EthernetConfig
	nics []*Pipe
	core *Pipe
}

// NewEthernet builds the Ethernet fabric for n IONs.
func NewEthernet(n int, cfg EthernetConfig) *Ethernet {
	e := &Ethernet{
		cfg:  cfg,
		nics: make([]*Pipe, n),
		core: NewPipe("eth/core", coreLat, cfg.CoreBW),
	}
	for i := range e.nics {
		e.nics[i] = NewPipe(fmt.Sprintf("eth/ion%d", i), ionLat, cfg.IONBw)
	}
	return e
}

// Transfer moves size bytes from ION ion through its NIC and the switch core,
// returning the arrival time at the server side.
func (e *Ethernet) Transfer(now float64, ion int, size int64) (arrival float64) {
	_, nicDone := e.nics[ion].Transfer(now, size)
	// The core is much faster; the transfer pipelines through it, paying the
	// core's queueing (if any) and latency on top.
	_, coreDone := e.core.Transfer(nicDone-float64(size)/e.cfg.IONBw, size)
	if coreDone < nicDone {
		coreDone = nicDone + coreLat
	}
	return coreDone
}

// NIC returns ION i's network interface pipe.
func (e *Ethernet) NIC(i int) *Pipe { return e.nics[i] }

// Core returns the shared switching-core pipe.
func (e *Ethernet) Core() *Pipe { return e.core }
