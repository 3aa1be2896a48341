package exp

import "repro/internal/ckpt"

// DrainRow is one backend's rbIO checkpoint step decomposed along the
// write-behind axis: how long the slowest writer blocked, when the
// application was back computing, and how long the storage tier kept
// landing data after that. On gpfs the ION write-behind cache already
// overlaps commits with the step's tail; the burst buffer pushes the same
// idea further — the writers block only for ION absorption, and the entire
// shared-array commit becomes drain tail.
type DrainRow struct {
	FS           string  `col:"file system"`
	NP           int     `col:"np"`
	WriterSec    float64 `col:"writer blocked (s)" fmt:"%.2f"` // slowest writer's blocking time
	StepSec      float64 `col:"step (s)" fmt:"%.2f"`           // checkpoint step as the application perceives it
	DrainTailSec float64 `col:"drain tail (s)" fmt:"%.2f"`     // shared storage still landing data after MaxEnd
	DurableGBps  float64 `col:"durable GB/s" fmt:"%.2f"`       // bytes over the time to the last durable byte
}

// DrainOverlap runs the headline rbIO configuration on gpfs and bbuf and
// reports how much of the commit each backend hides behind the application.
func DrainOverlap(o Options, np int) ([]DrainRow, error) {
	jobs := []Job{
		{NP: np, Strategy: ckpt.DefaultRbIO(), FS: "gpfs"},
		{NP: np, Strategy: ckpt.DefaultRbIO(), FS: "bbuf"},
	}
	return sweep(o, jobs, func(i int, r *Run) DrainRow {
		a := r.Agg
		// The strategy reports durability at Sync/Close. For bbuf that is
		// absorption (the buffer tier is the durability boundary); the
		// shared arrays finish at the last background drain.
		durable := a.MaxDurable
		if r.Buffer != nil && r.Buffer.LastDrainEnd > durable {
			durable = r.Buffer.LastDrainEnd
		}
		tail := durable - a.MaxEnd
		if tail < 0 {
			tail = 0
		}
		var gbps float64
		if span := durable - a.Start; span > 0 {
			gbps = GB(float64(a.Bytes) / span)
		}
		return DrainRow{
			FS:           string(jobs[i].FS),
			NP:           np,
			WriterSec:    a.MaxWriter,
			StepSec:      a.StepTime(),
			DrainTailSec: tail,
			DurableGBps:  gbps,
		}
	})
}
