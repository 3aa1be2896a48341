package exp

import (
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/mpiio"
	"repro/internal/nekcem"
	"repro/internal/storage"
)

// AblationRow is one variant measurement of a design-choice ablation.
type AblationRow struct {
	Ablation string  `col:"ablation"`
	Variant  string  `col:"variant"`
	NP       int     `col:"np"`
	GBps     float64 `col:"GB/s" fmt:"%.2f"`
	StepSec  float64 `col:"step (s)" fmt:"%.2f"`
	Extra    string  `col:"detail"` // ablation-specific detail (revocations, spikes, ...)
}

// variant is one arm of an ablation: a single checkpoint step of strat on
// gpfs, with tweak applied to the default configuration (nil keeps it).
type variant struct {
	label string
	strat ckpt.Strategy
	tweak func(*storage.GPFSConfig)
	quiet bool // the noise model's setting, in an ablation that sets it
}

// ablation is one design-choice comparison at np ranks.
type ablation struct {
	name      string
	np        int
	variants  []variant
	detail    func(r *Run) string // the detail column; nil leaves it empty
	setsNoise bool                // the variants set the noise model; the others follow Options.Quiet
}

// The ablations, indices into ablationTable in the order the ablations
// experiment prints them.
const (
	alignment = iota
	writerBuffer
	groupRatio
	ionCache
	noise
	blockSize
)

// ablationTable returns every design-choice ablation at np ranks.
func ablationTable(np int) []ablation {
	coio := func(nf int, align bool) ckpt.Strategy {
		h := mpiio.DefaultHints()
		h.AlignDomains = align
		return ckpt.CoIO{NumFiles: nf, Hints: h}
	}
	unbuffered := ckpt.DefaultRbIO()
	unbuffered.BufferFields = false
	blocks := func(mib int64) variant {
		return variant{label: fmt.Sprintf("%d MiB", mib), strat: ckpt.DefaultRbIO(),
			tweak: func(c *storage.GPFSConfig) { c.BlockSize = mib << 20 }}
	}
	return []ablation{
		// coIO nf=1 with and without file-domain alignment (the BG/P ADIO
		// block-boundary optimization, reference [25] of the paper).
		alignment: {name: "domain alignment", np: np, variants: []variant{
			{label: "aligned", strat: coio(1, true)},
			{label: "unaligned", strat: coio(1, false)},
		}, detail: func(r *Run) string { return fmt.Sprintf("%d token revocations", r.FSStats.TokenRevokes) }},
		// rbIO nf=ng with and without multi-field writer buffering — the
		// paper's explanation for nf=ng beating nf=1.
		writerBuffer: {name: "writer buffering", np: np, variants: []variant{
			{label: "buffered fields", strat: ckpt.DefaultRbIO()},
			{label: "per-field commit", strat: unbuffered},
		}},
		// rbIO's np:ng ratio (the paper discusses 64:1, 32:1 and 16:1).
		groupRatio: {name: "np:ng ratio", np: np, variants: []variant{
			{label: "16:1", strat: DefaultRbIOWithGroup(16)},
			{label: "32:1", strat: DefaultRbIOWithGroup(32)},
			{label: "64:1", strat: DefaultRbIOWithGroup(64)},
		}, detail: func(r *Run) string { return fmt.Sprintf("ng=%d writers", writers(r)) }},
		// The ION write-behind cache against synchronous commits (the
		// paper's remark that PVFS ran with caching off).
		ionCache: {name: "ION cache", np: np, variants: []variant{
			{label: "write-behind", strat: ckpt.DefaultRbIO()},
			{label: "synchronous (cache off)", strat: ckpt.DefaultRbIO(), tweak: func(c *storage.GPFSConfig) { c.WriteBehind = false }},
		}},
		// The normal-load noise model against a quiet machine, for the
		// configuration the noise hurts most: coIO 64:1 at 64K ranks.
		noise: {name: "storage noise", np: np, setsNoise: true, variants: []variant{
			{label: "normal load", strat: coio(np/64, true)},
			{label: "quiet machine", strat: coio(np/64, true), quiet: true},
		}, detail: func(r *Run) string { return fmt.Sprintf("%d spikes", r.FSStats.NoiseSpikes) }},
		// The GPFS block size (lock and striping granularity) for the rbIO
		// headline configuration — a file-system knob the paper's tuning
		// discussion (Section V-B) implies but could not vary on the
		// production machine.
		blockSize: {name: "GPFS block size", np: np, variants: []variant{blocks(1), blocks(4), blocks(16)},
			detail: func(r *Run) string { return fmt.Sprintf("%d token grants", r.FSStats.TokenGrants) }},
	}
}

// writers counts the ranks that wrote as rbIO writers in the run.
func writers(r *Run) int {
	n := 0
	for _, rc := range r.PerRank {
		if rc.Role == ckpt.RoleWriter {
			n++
		}
	}
	return n
}

// ablate runs the ablation's variants on the worker pool, each a single
// checkpoint step on its own kernel, and returns their rows in order.
func ablate(o Options, a ablation) ([]AblationRow, error) {
	return runCells(o, a.variants, func(v variant) (AblationRow, error) {
		gcfg := storage.DefaultGPFS()
		if v.tweak != nil {
			v.tweak(&gcfg)
		}
		oo := o
		if a.setsNoise {
			oo.Quiet = v.quiet
		}
		e, res, err := simulate(oo, scenario{NP: a.np, GPFSCfg: &gcfg}, nekcem.PaperRun(a.np, v.strat, 1, 1), "ablation/"+v.strat.Name())
		if err != nil {
			return AblationRow{}, err
		}
		r := &Run{NP: a.np, Agg: res.Checkpoints[0], PerRank: res.PerRank, FSStats: *e.Stats}
		row := AblationRow{Ablation: a.name, Variant: v.label, NP: a.np,
			GBps: GB(r.Agg.Bandwidth()), StepSec: r.Agg.StepTime()}
		if a.detail != nil {
			row.Extra = a.detail(r)
		}
		return row, nil
	})
}

// AblateAlignment compares coIO nf=1 with and without file-domain alignment.
func AblateAlignment(o Options, np int) ([]AblationRow, error) {
	return ablate(o, ablationTable(np)[alignment])
}

// AblateWriterBuffer compares rbIO nf=ng with and without writer buffering.
func AblateWriterBuffer(o Options, np int) ([]AblationRow, error) {
	return ablate(o, ablationTable(np)[writerBuffer])
}

// AblateGroupRatio sweeps rbIO's np:ng ratio.
func AblateGroupRatio(o Options, np int) ([]AblationRow, error) {
	return ablate(o, ablationTable(np)[groupRatio])
}

// AblateIONCache compares the ION write-behind cache against synchronous
// commits.
func AblateIONCache(o Options, np int) ([]AblationRow, error) {
	return ablate(o, ablationTable(np)[ionCache])
}

// AblateNoise compares the normal-load noise model against a quiet machine.
func AblateNoise(o Options, np int) ([]AblationRow, error) {
	return ablate(o, ablationTable(np)[noise])
}

// AblateBlockSize sweeps the GPFS block size for the rbIO headline
// configuration.
func AblateBlockSize(o Options, np int) ([]AblationRow, error) {
	return ablate(o, ablationTable(np)[blockSize])
}
