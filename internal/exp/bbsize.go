package exp

import (
	"strconv"

	"repro/internal/ckpt"
	"repro/internal/machine"
	"repro/internal/table"
)

// BBSizeRow is one fleet configuration's rbIO (or async) checkpoint step:
// how the app perceived it, when the bytes actually became durable, and
// what the fleet did to get there. Sweeping the fleet size exposes the
// crossover the shared-fleet refactor exists to measure: an undersized
// fleet saturates its absorb/drain pipes and spills to the synchronous
// path — the step degrades toward the sync backends — while an adequately
// sized fleet keeps the whole commit behind the application.
type BBSizeRow struct {
	Strategy string    `col:"strategy"`
	Ratio    int       `col:"ratio"` // compute nodes per ION (the pset ratio)
	Psets    int       `col:"psets"` // IONs at this ratio
	Fleet    fleetSize `col:"fleet"` // fleet nodes (== Psets is the private legacy shape); 0 = sync reference
	Drain    string    `col:"drain"` // drain-scheduler policy ("sync" for the reference row)

	WriterSec    float64 `col:"writer (s)" fmt:"%.2f"`   // slowest writer's blocking time
	StepSec      float64 `col:"step (s)" fmt:"%.2f"`     // checkpoint step as the application perceives it
	DurableSec   float64 `col:"durable (s)" fmt:"%.2f"`  // snapshot start to the last durable byte
	DrainTailSec float64 `col:"tail (s)" fmt:"%.2f"`     // storage still landing data after the app unblocked
	QueueSec     float64 `col:"queue (s)" fmt:"%.2f"`    // worst drain-queue residency past the flush (async arms)
	SpillBytes   int64   `col:"spill (B)"`               // bytes that bypassed a full fleet synchronously
	PeakBacklog  int64   `col:"backlog peak (B)"`        // high-water scheduler backlog on any single node
	DurableGBps  float64 `col:"durable GB/s" fmt:"%.2f"` // bytes over the time to the last durable byte
}

// fleetSize is a burst-buffer fleet's node count; the synchronous reference
// row has none and prints "-".
type fleetSize int

func (n fleetSize) String() string {
	if n == 0 {
		return "-"
	}
	return strconv.Itoa(int(n))
}

// BBFaultRow is one faulted fleet configuration: the same step under an
// accelerated MTBF, with the fleet's loss accounting. A shared fleet
// concentrates more tenants' bytes per node, so a single ION death takes a
// bigger (but correctly aggregated — one loss event per kill) bite.
type BBFaultRow struct {
	Fleet      int    `col:"fleet"`
	Drain      string `col:"drain"`
	Fails      int    `col:"fails"`       // fault events that fired
	LostBytes  int64  `col:"lost (B)"`    // absorbed bytes that never became durable
	LossEvents int    `col:"loss events"` // aggregated loss reports behind LostBytes
	SpillBytes int64  `col:"spill (B)"`
	Lost       bool   `col:"lost ckpt"` // the trial lost checkpoint state outright
}

// BBSizeResult is the bbsize experiment's output.
type BBSizeResult struct {
	Rows    []BBSizeRow
	Faulted []BBFaultRow
}

// bbFleetSizes is the sweep's fleet-size ladder at a pset count: a single
// shared node (maximal striping pressure), quarter and half fleets, and
// the full private shape.
func bbFleetSizes(psets int) []int {
	var out []int
	for _, s := range []int{1, psets / 4, psets / 2, psets} {
		if s < 1 {
			continue
		}
		if len(out) > 0 && out[len(out)-1] == s {
			continue
		}
		out = append(out, s)
	}
	return out
}

// bbDrains returns the sweep's drain policies, collapsed to the options'
// -drain pin when the user set one.
func bbDrains(o Options) []string {
	if o.Drain != "" {
		return []string{o.Drain}
	}
	return []string{"fifo", "deadline"}
}

// BBSize sweeps the burst-buffer fleet across size x drain policy x pset
// ratio with rbIO (plus an async arm at the default ratio, whose flush
// carries the drain-queue residency), anchored by a pvfs synchronous
// reference row per ratio, then reruns the extreme fleet shapes under an
// accelerated MTBF to show what a shared fleet loses when an ION dies.
// Every cell is an independent simulation dispatched through RunSet, so
// rows are identical at any -parallel setting.
func BBSize(o Options, np int, mtbfHours float64) (*BBSizeResult, error) {
	d, err := machine.Lookup(o.Machine)
	if err != nil {
		return nil, err
	}
	geo := d.Config(np)
	nodes := np / geo.RanksPerNode
	ratios := []int{geo.NodesPerPset / 2, geo.NodesPerPset}
	drains := bbDrains(o)

	var jobs []Job
	var meta []BBSizeRow // row skeleton per job, filled from the run
	add := func(row BBSizeRow, j Job) {
		meta = append(meta, row)
		jobs = append(jobs, j)
	}
	for _, ratio := range ratios {
		if ratio < 1 || nodes%ratio != 0 {
			continue
		}
		psets := nodes / ratio
		strategies := []string{"rbio"}
		if ratio == geo.NodesPerPset {
			strategies = append(strategies, "async")
		}
		for _, sname := range strategies {
			for _, size := range bbFleetSizes(psets) {
				for _, drain := range drains {
					add(BBSizeRow{Strategy: sname, Ratio: ratio, Psets: psets, Fleet: fleetSize(size), Drain: drain},
						Job{NP: np, Strategy: ckpt.MustNew(sname, np), FS: "bbuf",
							NodesPerPset: ratio, BBNodes: size, BBDrain: drain})
				}
			}
		}
		// Synchronous reference: the same step with no buffer tier at all.
		add(BBSizeRow{Strategy: "rbio", Ratio: ratio, Psets: psets, Fleet: 0, Drain: "sync"},
			Job{NP: np, Strategy: ckpt.MustNew("rbio", np), FS: "pvfs", NodesPerPset: ratio})
	}

	rows, err := sweep(o, jobs, func(i int, r *Run) BBSizeRow {
		row := meta[i]
		a := r.Agg
		durable := a.MaxDurable
		if r.Buffer != nil {
			if r.Buffer.LastDrainEnd > durable {
				durable = r.Buffer.LastDrainEnd
			}
			row.SpillBytes = r.Buffer.SpilledBytes
			row.PeakBacklog = r.Buffer.PeakBacklogBytes
		}
		row.WriterSec = a.MaxWriter
		row.StepSec = a.StepTime()
		row.DurableSec = durable - a.Start
		if tail := durable - a.MaxEnd; tail > 0 {
			row.DrainTailSec = tail
		}
		row.QueueSec = a.MaxQueue
		if span := durable - a.Start; span > 0 {
			row.DurableGBps = GB(float64(a.Bytes) / span)
		}
		return row
	})
	if err != nil {
		return nil, err
	}

	// Faulted arm: the extreme fleet shapes at the default ratio, each under
	// an accelerated MTBF (one 8x rung below the headline value, the fault
	// sweep's middle rung) with its own derived schedule seed.
	psets := nodes / geo.NodesPerPset
	fsizes := []int{1, psets}
	if psets == 1 {
		fsizes = fsizes[:1]
	}
	var fjobs []Job
	var fmeta []BBFaultRow
	for _, size := range fsizes {
		for _, drain := range drains {
			seed := o.seed()
			seed ^= uint64(size+1) * 0xbf58476d1ce4e5b9
			seed ^= uint64(len(fmeta)+1) * 0x94d049bb133111eb
			fmeta = append(fmeta, BBFaultRow{Fleet: size, Drain: drain})
			fjobs = append(fjobs, Job{
				NP: np, Strategy: ckpt.MustNew("rbio", np), FS: "bbuf",
				BBNodes: size, BBDrain: drain,
				Faults: &FaultSpec{MTBF: mtbfHours * 3600 / 8, MTTR: 60, Shape: 1.2, Seed: seed},
			})
		}
	}
	faulted, err := sweep(o, fjobs, func(i int, r *Run) BBFaultRow {
		row := fmeta[i]
		if r.Fault != nil {
			row.Fails = r.Fault.Counts.Fails
			row.LostBytes = r.Fault.LostBufferBytes
			row.Lost = r.Fault.Lost
		}
		if r.Buffer != nil {
			row.LossEvents = r.Buffer.LossEvents
			row.SpillBytes = r.Buffer.SpilledBytes
		}
		return row
	})
	if err != nil {
		return nil, err
	}
	return &BBSizeResult{Rows: rows, Faulted: faulted}, nil
}

// Table renders the fault-free sweep.
func (r *BBSizeResult) Table() string { return table.Of(r.Rows) }

// FaultTable renders the faulted arm.
func (r *BBSizeResult) FaultTable() string { return table.Of(r.Faulted) }
