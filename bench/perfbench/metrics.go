package main

import "repro/internal/trace"

// metric names one reported number. Exact metrics are deterministic counts
// of the simulation and must repeat bit for bit at a fixed seed; the rest are
// host measurements. Units: sim_s is simulated seconds, every other time
// unit is host time.
type metric struct {
	name, unit string
	exact      bool
}

// endToEnd are measured with tracing off, one sample per repetition.
var endToEnd = []metric{
	{"wall_s", "s", false},
	{"setup_s", "s", false},
	{"peak_rss_mb", "MB", false},
}

// perLayer come from the traced repetition, the result rows, the probes and
// the untraced repetitions' runtime statistics. BENCHMARK.json lists the
// same names and units (checked by TestSpecMatchesMetrics).
var perLayer = []metric{
	{"sim.events", "count", true},
	{"sim.events_per_s", "1/s", false},
	{"sim.woken", "count", true},
	{"sim.event_ns", "ns", false},
	{"sim.event_allocs", "allocs/op", false},
	{"sim.handoff_ns", "ns", false},
	{"sim.resource_ns", "ns", false},
	{"sim.shard_setup_ratio", "x", false},

	{"machine.transfer_ns", "ns", false},
	{"machine.torus_msgs", "count", true},
	{"machine.torus_bytes", "B", true},
	{"machine.funnel_wait_s", "sim_s", true},

	{"mpi.msgs", "count", true},
	{"mpi.bytes", "B", true},
	{"mpi.recv_wait_s", "sim_s", true},
	{"mpi.barrier_wait_s", "sim_s", true},
	{"mpi.p2p_ns", "ns", false},
	{"mpi.allgather_ns", "ns", false},
	{"mpiio.collective_write_ns", "ns", false},

	{"storage.fs_writes", "count", true},
	{"storage.server_writes", "count", true},
	{"storage.lock_acquires", "count", true},
	{"storage.md_creates", "count", true},
	{"storage.write_busy_s", "sim_s", true},
	{"storage.retries", "count", true},
	{"gpfs.commit_ns", "ns", false},
	{"pvfs.commit_ns", "ns", false},

	{"bbuf.commit_ns", "ns", false},
	{"bbuf.spill_bytes", "B", true},
	{"bbuf.peak_backlog_bytes", "B", true},
	{"bbuf.lost_bytes", "B", true},

	{"ckpt.steps", "count", true},
	{"ckpt.bytes", "B", true},
	{"ckpt.step_ms.1pfpp", "ms", false},
	{"ckpt.step_ms.coio", "ms", false},
	{"ckpt.step_ms.rbio", "ms", false},
	{"ckpt.step_ms.async", "ms", false},

	{"recover.segments", "count", true},
	{"recover.rollbacks", "count", true},
	{"recover.torn", "count", true},
	{"recover.rework_steps", "count", true},
	{"recover.kills", "count", true},

	{"exp.runs", "count", true},

	{"trace.overhead_x", "x", false},
	{"trace.dropped_events", "count", true},

	{"go.gc_cycles", "count", false},
	{"go.alloc_bytes", "B", false},
}

// traceCounters and traceSpans map recorder aggregates onto per-layer
// metrics. Each is summed over every run of the traced repetition; storage
// spans are matched by name, so bbuf's commit chain counts with gpfs's and
// pvfs's.
var traceCounters = map[string]string{
	"kernel.events": "sim.events",
	"kernel.woken":  "sim.woken",
	"torus.msgs":    "machine.torus_msgs",
	"torus.bytes":   "machine.torus_bytes",
	"mpi.msgs":      "mpi.msgs",
	"mpi.bytes":     "mpi.bytes",
	"storage.retry": "storage.retries",
}

var traceSpans = map[string]struct{ count, total, bytes string }{
	"ion.funnel":   {total: "machine.funnel_wait_s"},
	"mpi.recv":     {total: "mpi.recv_wait_s"},
	"mpi.barrier":  {total: "mpi.barrier_wait_s"},
	"fs.write":     {count: "storage.fs_writes"},
	"server.write": {count: "storage.server_writes", total: "storage.write_busy_s"},
	"lock.acquire": {count: "storage.lock_acquires"},
	"md.create":    {count: "storage.md_creates"},
	"ckpt.step":    {count: "ckpt.steps", bytes: "ckpt.bytes"},
}

// traceMetrics reduces a traced repetition's per-run snapshots to per-layer
// metrics, adding into c.
func traceMetrics(ms []trace.Metrics, c map[string]float64) {
	for _, m := range ms {
		for _, ct := range m.Counters {
			if name, ok := traceCounters[ct.Name]; ok {
				c[name] += float64(ct.Value)
			}
		}
		for _, sp := range m.Spans {
			t, ok := traceSpans[sp.Name]
			if !ok {
				continue
			}
			if t.count != "" {
				c[t.count] += float64(sp.Count)
			}
			if t.total != "" {
				c[t.total] += sp.Total
			}
			if t.bytes != "" {
				c[t.bytes] += float64(sp.Bytes)
			}
		}
		c["trace.dropped_events"] += float64(m.Dropped)
	}
}
