// Package trace is the simulator's observability layer: a Darshan-style,
// zero-cost-when-disabled recorder for typed span/counter/instant events
// emitted by the instrumented layers (kernel dispatch, MPI transport,
// fabric pipes, the storage commit chain, the burst buffer, and the
// checkpoint strategies).
//
// A *Recorder hangs off the sim.Kernel; every layer reaches it through the
// kernel and guards emission with a nil check, so a run without tracing
// pays exactly one pointer compare per instrumentation point and performs
// no allocation on the kernel or MPI hot paths (pinned by benchmark).
//
// The recorder only observes: it never schedules events, draws random
// numbers, or advances the clock, so an enabled trace cannot perturb
// simulated time — experiment outputs are byte-identical with tracing on
// or off (pinned by the golden tests in internal/exp).
//
// A recorder belongs to one kernel and is driven from the single goroutine
// holding that kernel's baton; it is not safe for concurrent use. Parallel
// experiment runners give each job its own recorder.
package trace

import "math"

// Layer identifies the simulated component an event belongs to. Layers map
// one-to-one onto Perfetto "processes" in the exported trace and onto rows
// of the attributed-time table.
type Layer uint8

const (
	// LayerKernel is the discrete-event kernel itself: dispatch, calendar
	// maintenance, and time that no instrumented layer claimed.
	LayerKernel Layer = iota
	// LayerMPI is the message transport: sends, receives, waits,
	// collectives.
	LayerMPI
	// LayerFabric is the interconnect: torus links, pset tree funnels,
	// the ION Ethernet.
	LayerFabric
	// LayerStorage is the shared storage core and its policy compositions
	// (gpfs, pvfs): metadata, locks, the stripe commit chain.
	LayerStorage
	// LayerBBuf is the burst-buffer tier: ION absorption, background
	// drain, spills.
	LayerBBuf
	// LayerCkpt is checkpoint-strategy logic: aggregation hand-offs,
	// writer commits, per-rank checkpoint phases.
	LayerCkpt
	// LayerCompute is the application proxy's computation between
	// checkpoints.
	LayerCompute
	// LayerRecovery is the checkpoint/restart lifecycle: manifest scans,
	// torn-epoch detection, rollback decisions, and re-executed work.
	LayerRecovery
	// LayerAsync is the asynchronous checkpoint flush path: node-local
	// snapshots and the background aggregation agents' storage traffic,
	// which overlaps LayerCompute rather than blocking it.
	LayerAsync

	// NumLayers bounds the enum; arrays indexed by Layer use this size.
	NumLayers
)

var layerNames = [NumLayers]string{
	"kernel", "mpi", "fabric", "storage", "bbuf", "ckpt", "compute", "recovery", "async",
}

// String returns the layer's lowercase name.
func (l Layer) String() string {
	if l < NumLayers {
		return layerNames[l]
	}
	return "unknown"
}

// Kind discriminates the timeline event variants.
type Kind uint8

const (
	// KindSpan is a duration: a named operation with a start and an end.
	KindSpan Kind = iota
	// KindInstant is a point event (a retry, a failover, a spill).
	KindInstant
	// KindCounter is a sampled value on a named counter track.
	KindCounter
)

// Event is one timeline entry. Times are simulated seconds.
type Event struct {
	Layer Layer
	Kind  Kind
	Track int32 // rank / server / pset the event belongs to
	Name  string
	T     float64 // start time
	Dur   float64 // spans only
	Value float64 // counter sample, or span payload bytes
}

// DefaultMaxEvents caps the retained timeline of a NewRecorder. Aggregated
// statistics (span totals, counters, attributed time) keep accumulating
// past the cap; only the per-event timeline stops growing, with the
// overflow counted in Dropped.
const DefaultMaxEvents = 1 << 20

// spanKey aggregates spans by (layer, name); per-track detail stays in the
// event timeline only.
type spanKey struct {
	layer Layer
	name  string
}

// HistBuckets is the number of span-duration histogram buckets: decades
// from under a microsecond to 100 seconds and beyond.
const HistBuckets = 10

// histEdges are the bucket upper bounds in seconds; the last bucket is
// unbounded.
var histEdges = [HistBuckets - 1]float64{
	1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10, 100,
}

// HistLabel names histogram bucket i.
func HistLabel(i int) string {
	labels := [HistBuckets]string{
		"<1us", "<10us", "<100us", "<1ms", "<10ms", "<100ms",
		"<1s", "<10s", "<100s", ">=100s",
	}
	if i < 0 || i >= HistBuckets {
		return "?"
	}
	return labels[i]
}

func histBucket(d float64) int {
	for i, hi := range histEdges {
		if d < hi {
			return i
		}
	}
	return HistBuckets - 1
}

// SpanStat aggregates every span recorded under one (layer, name).
type SpanStat struct {
	Count uint64
	Total float64 // summed duration, seconds
	Min   float64
	Max   float64
	Bytes int64 // summed payload
	Hist  [HistBuckets]uint64
}

// kacc is a Neumaier compensated accumulator: adding values in any order
// keeps the running sum within a few ulps of the exact real-number sum.
type kacc struct {
	sum, c float64
}

func (a *kacc) add(x float64) {
	t := a.sum + x
	if math.Abs(a.sum) >= math.Abs(x) {
		a.c += (a.sum - t) + x
	} else {
		a.c += (x - t) + a.sum
	}
	a.sum = t
}

func (a *kacc) value() float64 { return a.sum + a.c }

// twoSum returns s = fl(a+b) and the exact rounding error e such that
// a + b == s + e in real arithmetic (Knuth's branch-free 2Sum).
func twoSum(a, b float64) (s, e float64) {
	s = a + b
	bv := s - a
	e = (a - (s - bv)) + (b - bv)
	return s, e
}

// Recorder collects a single run's trace. All methods are safe on a nil
// receiver and do nothing, which is the entire disabled path.
type Recorder struct {
	// MaxEvents caps the retained timeline; events beyond it are counted
	// in Dropped but still aggregated. Set 0 before the run for a
	// metrics-only recorder.
	MaxEvents int

	events  []Event
	dropped uint64

	layerTime [NumLayers]kacc

	spans    map[spanKey]*SpanStat
	counters map[spanKey]int64

	// tenants/tenantAggs drive per-tenant span attribution in multi-tenant
	// sessions (see tenant.go); nil — costing one pointer compare per
	// span — everywhere else.
	tenants    []TenantRange
	tenantAggs []tenantAgg
}

// NewRecorder returns an enabled recorder with the default event cap.
func NewRecorder() *Recorder {
	return &Recorder{MaxEvents: DefaultMaxEvents}
}

func (r *Recorder) push(ev Event) {
	if len(r.events) >= r.MaxEvents {
		r.dropped++
		return
	}
	r.events = append(r.events, ev)
}

// Span records a completed operation on (layer, name) covering simulated
// [start, end], attributed to track (a rank, server, or pset index), with
// an optional payload size. Ends in the simulated future are legal: a
// write-behind commit may be recorded when issued.
func (r *Recorder) Span(l Layer, name string, track int, start, end float64, bytes int64) {
	if r == nil {
		return
	}
	d := end - start
	if d < 0 {
		d = 0
	}
	st := r.spanStat(l, name)
	st.Count++
	st.Total += d
	st.Bytes += bytes
	if st.Count == 1 || d < st.Min {
		st.Min = d
	}
	if d > st.Max {
		st.Max = d
	}
	st.Hist[histBucket(d)]++
	if r.tenantAggs != nil {
		r.attributeSpan(l, name, track, d)
	}
	r.push(Event{Layer: l, Kind: KindSpan, Track: int32(track), Name: name, T: start, Dur: d, Value: float64(bytes)})
}

func (r *Recorder) spanStat(l Layer, name string) *SpanStat {
	k := spanKey{l, name}
	st := r.spans[k]
	if st == nil {
		if r.spans == nil {
			r.spans = make(map[spanKey]*SpanStat)
		}
		st = &SpanStat{}
		r.spans[k] = st
	}
	return st
}

// Instant records a point event (retry, failover, spill) at simulated time
// t on track. It also counts under (layer, name) like Add.
func (r *Recorder) Instant(l Layer, name string, track int, t float64) {
	if r == nil {
		return
	}
	r.bump(l, name, 1)
	r.push(Event{Layer: l, Kind: KindInstant, Track: int32(track), Name: name, T: t})
}

// Counter records a sample of a named counter track (queue depth, buffer
// occupancy) at simulated time t.
func (r *Recorder) Counter(l Layer, name string, track int, t, v float64) {
	if r == nil {
		return
	}
	r.push(Event{Layer: l, Kind: KindCounter, Track: int32(track), Name: name, T: t, Value: v})
}

// Add bumps an aggregate counter without emitting a timeline event; use it
// for per-message tallies too hot to trace individually.
func (r *Recorder) Add(l Layer, name string, delta int64) {
	if r == nil {
		return
	}
	r.bump(l, name, delta)
}

func (r *Recorder) bump(l Layer, name string, delta int64) {
	if r.counters == nil {
		r.counters = make(map[spanKey]int64)
	}
	r.counters[spanKey{l, name}] += delta
}

// Advance attributes a clock advance [from, to] of the simulation to a
// layer. The kernel calls this on every dispatch that moves time, with
// consecutive calls abutting (the next from equals the previous to), so
// the per-layer totals telescope: their sum equals the final simulated
// time to within a few ulps. Each delta is captured exactly via 2Sum and
// accumulated with Neumaier compensation, which is what lets the metrics
// table promise that attributed time sums to the makespan within 1e-9.
func (r *Recorder) Advance(l Layer, from, to float64) {
	if r == nil || to == from {
		return
	}
	d, e := twoSum(to, -from)
	a := &r.layerTime[l]
	a.add(d)
	a.add(e)
}

// LayerTime returns the simulated seconds attributed to a layer.
func (r *Recorder) LayerTime(l Layer) float64 {
	if r == nil {
		return 0
	}
	return r.layerTime[l].value()
}

// AttributedTotal sums the per-layer attributed time.
func (r *Recorder) AttributedTotal() float64 {
	if r == nil {
		return 0
	}
	var t kacc
	for l := Layer(0); l < NumLayers; l++ {
		t.add(r.layerTime[l].sum)
		t.add(r.layerTime[l].c)
	}
	return t.value()
}

// Events returns the retained timeline in recording order.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	return r.events
}
