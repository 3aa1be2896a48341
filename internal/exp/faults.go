package exp

import (
	"fmt"
	"math"

	"repro/internal/ckpt"
	"repro/internal/fault"
	"repro/internal/xrand"
)

// FaultSpec arms fault injection on a Job. The schedule is either given
// explicitly (targeted scenario tests) or sampled from per-component MTBF;
// either way it is fixed before the simulation starts, so faulted runs are
// as deterministic as fault-free ones — per seed, at any worker count.
type FaultSpec struct {
	// MTBF is the per-component mean time between failures in seconds,
	// applied to every class (nodes, IONs, servers, links). Components per
	// class come from the machine, so the class failure rates scale with np.
	MTBF float64
	// MTTR is the mean repair time in seconds (0: failures are permanent).
	MTTR float64
	// Shape is the Weibull shape for inter-failure times (<=0: exponential).
	Shape float64
	// Horizon caps the sampled window in simulated seconds (default 150,
	// comfortably past any single checkpoint step at paper scales).
	Horizon float64
	// Seed drives the schedule sample and the retry-jitter stream; it is
	// independent of the experiment's machine/noise seed.
	Seed uint64
	// Schedule, when non-nil, is used verbatim instead of sampling.
	Schedule fault.Schedule
	// TryRestart, when the checkpoint survived, launches a fresh job that
	// restores from it on the same (possibly still-degraded) storage.
	TryRestart bool
}

// FaultOutcome is what fault injection did to one checkpoint trial.
type FaultOutcome struct {
	Lost bool // some rank's state never reached durable storage

	DeadRanks       int   // ranks whose node was down at checkpoint entry
	MissingChunks   int   // rbIO group chunks the writer gave up waiting for
	LostBufferBytes int64 // burst-buffer bytes lost to ION deaths

	Failovers    int // commits redirected to a surviving server
	CommitErrors int // commits that exhausted the retry budget

	Counts fault.Counts // injector events that fired

	RestartOK bool
}

// attachFaults samples (or adopts) the spec's schedule, arms an injector on
// the kernel, and threads it through the storage backend and the Ethernet
// NICs. It must run before the MPI world spawns.
func (e *env) attachFaults(spec *FaultSpec) (*fault.Injector, error) {
	k, m, fs := e.K, e.M, e.FS
	sched := spec.Schedule
	if sched == nil {
		if spec.MTBF <= 0 {
			return nil, fmt.Errorf("exp: fault spec needs an explicit schedule or MTBF > 0")
		}
		horizon := spec.Horizon
		if horizon <= 0 {
			horizon = 150
		}
		rng := xrand.New(spec.Seed | 1)
		sched = fault.Sample(rng, horizon, map[fault.Class]fault.Rates{
			fault.Node:   {N: m.NumNodes(), MTBF: spec.MTBF, MTTR: spec.MTTR, Shape: spec.Shape},
			fault.ION:    {N: m.NumPsets(), MTBF: spec.MTBF, MTTR: spec.MTTR, Shape: spec.Shape},
			fault.Server: {N: numServers(fs), MTBF: spec.MTBF, MTTR: spec.MTTR, Shape: spec.Shape},
			fault.Link:   {N: m.NumPsets(), MTBF: spec.MTBF, MTTR: spec.MTTR, Shape: spec.Shape, Factor: 0.25},
		})
	}
	inj := fault.NewInjector(k, sched)
	// The jitter stream is split from the fault seed, never from the
	// machine's noise RNG: the storage core's RNG split order is frozen by
	// the fault-free goldens.
	frng := xrand.New((spec.Seed ^ 0xda3e39cb94b95bdb) | 1)
	if f, ok := fs.(interface {
		EnableFaults(*fault.Injector, *xrand.RNG)
	}); ok {
		f.EnableFaults(inj, frng)
	}
	inj.Subscribe(func(ev fault.Event) {
		switch ev.Class {
		case fault.Link:
			if ev.Index >= m.NumPsets() {
				return
			}
			switch ev.Kind {
			case fault.Degrade:
				m.Eth.NIC(ev.Index).SetDegrade(ev.Factor)
			case fault.Restore:
				m.Eth.NIC(ev.Index).SetDegrade(0)
			}
		}
	})
	return inj, nil
}

// FaultRow aggregates the survivability trials of one (strategy, MTBF) cell.
type FaultRow struct {
	Strategy  string       `col:"strategy"`
	FS        string       `col:"fs"`
	MTBFHours float64      `col:"mtbf/comp (h)" fmt:"%.1f"` // per-component MTBF
	Trials    int          `col:"trials"`
	Lost      lossTally    `col:"lost"`       // trials that lost checkpoint state
	RestartOK restartTally `col:"restart ok"` // survivors whose checkpoint restored a fresh job

	AvgFails     float64 `col:"fails" fmt:"%.1f"` // injector Fail events per trial
	AvgDeadRanks float64 `col:"dead ranks" fmt:"%.1f"`
	AvgMissing   float64 `col:"missing chunks" fmt:"%.1f"` // rbIO chunks given up per trial
	AvgFailovers float64 `col:"failovers" fmt:"%.1f"`
}

// lossTally counts the trials that lost state; it prints with its share of
// all trials, "3 (38%)".
type lossTally struct{ N, Trials int }

func (t lossTally) String() string {
	return fmt.Sprintf("%d (%.0f%%)", t.N, 100*float64(t.N)/float64(t.Trials))
}

// restartTally counts the surviving trials whose checkpoint restored a fresh
// job; it prints out of the survivors, "4/5".
type restartTally struct{ N, Survivors int }

func (t restartTally) String() string { return fmt.Sprintf("%d/%d", t.N, t.Survivors) }

// faultStrategies are the survivability contenders: the three write layouts
// whose failure modes differ (independent files, collective single file via
// groups, group files with re-election).
func faultStrategies(np int) []ckpt.Strategy {
	return strategiesByName(np, "1pfpp", "coio", "rbio")
}

// faultMultipliers ladder the per-component MTBF down from the headline
// value in 8x steps. A checkpoint step lasts seconds while realistic MTBFs
// are hours, so the lower rungs are accelerated — the standard trick in
// fault-injection studies to make the loss probability measurable with a
// bounded trial count; the top rung stays at the quoted MTBF.
var faultMultipliers = []float64{1, 1.0 / 8, 1.0 / 64}

// FaultSweep measures checkpoint survivability: for each strategy and each
// point of an MTBF ladder down from mtbfHours, it runs several independently
// seeded trials of one coordinated checkpoint step under sampled faults and
// tallies how often state was lost and whether survivors restart.
func FaultSweep(o Options, np int, mtbfHours float64) ([]FaultRow, error) {
	return FaultSweepN(o, np, mtbfHours, 8)
}

// FaultSweepN is FaultSweep with an explicit trial count per cell.
func FaultSweepN(o Options, np int, mtbfHours float64, trials int) ([]FaultRow, error) {
	if trials <= 0 {
		trials = 8
	}
	strategies := faultStrategies(np)
	fsName := string(o.normalize().FS)
	// Each (strategy, MTBF) row is one cell that runs its trials in turn and
	// folds them.
	return runCells(o, pairs(len(strategies), len(faultMultipliers)), func(c pair) (FaultRow, error) {
		si, mi := c.i, c.j
		mult := faultMultipliers[mi]
		row := FaultRow{
			Strategy: strategies[si].Name(), FS: fsName,
			MTBFHours: mtbfHours * mult, Trials: trials,
		}
		lost, restored := 0, 0
		for t := 0; t < trials; t++ {
			seed := o.seed()
			seed ^= uint64(si+1) * 0xbf58476d1ce4e5b9
			seed ^= uint64(mi+1) * 0x94d049bb133111eb
			seed ^= uint64(t+1) * 0x9e3779b97f4a7c15
			r, err := runJob(o, Job{NP: np, Strategy: strategies[si], Faults: &FaultSpec{
				MTBF: mtbfHours * 3600 * mult, MTTR: 600, Shape: 1.2,
				Horizon: 150, Seed: seed, TryRestart: true,
			}})
			if err != nil {
				return row, err
			}
			fo := r.Fault
			if fo.Lost {
				lost++
			}
			if fo.RestartOK {
				restored++
			}
			row.AvgFails += float64(fo.Counts.Fails)
			row.AvgDeadRanks += float64(fo.DeadRanks)
			row.AvgMissing += float64(fo.MissingChunks)
			row.AvgFailovers += float64(fo.Failovers)
		}
		row.AvgFails /= float64(trials)
		row.AvgDeadRanks /= float64(trials)
		row.AvgMissing /= float64(trials)
		row.AvgFailovers /= float64(trials)
		row.Lost = lossTally{lost, trials}
		row.RestartOK = restartTally{restored, trials - lost}
		return row, nil
	})
}

// MakespanRow is one point of the expected-makespan study: a strategy's
// measured checkpoint/restart costs pushed through the Daly model at one
// system MTBF.
type MakespanRow struct {
	Strategy      string  `col:"strategy"`
	NP            int     `col:"np"`
	MTBFHours     float64 `col:"mtbf/comp (h)" fmt:"%.1f"` // per-component; SysMTBF is this over the component count
	SysMTBF       float64 `col:"sys mtbf (s)" fmt:"%.0f"`  // seconds
	C             float64 `col:"C (s)" fmt:"%.1f"`         // measured checkpoint write, seconds
	R             float64 `col:"R (s)" fmt:"%.1f"`         // measured restart read, seconds
	TauOpt        float64 `col:"tau_opt (s)" fmt:"%.0f"`   // Young's optimum checkpoint interval, seconds
	NumCkpts      float64 `col:"ckpts" fmt:"%.0f"`         // checkpoints over the workload at TauOpt
	MakespanHours float64 `col:"makespan (h)" fmt:"%.2f"`  // expected wall hours for the 24h workload
	Overhead      float64 `col:"overhead" fmt:"%.1f%%"`    // (makespan - work) / work, percent
}

// makespanWork is the fault-free workload the study amortizes over: 24 hours
// of pure computation.
const makespanWork = 24 * 3600.0

// Makespan combines this simulator's measured checkpoint and restart costs
// with the Daly expected-makespan model: for each strategy it measures C
// (write) and R (restart read) at scale, then sweeps the per-component MTBF
// around mtbfHours and reports Young's optimum interval and the expected
// completion time of a 24-hour workload. This is the figure that turns the
// paper's bandwidth comparison into time-to-solution.
func Makespan(o Options, np int, mtbfHours float64) ([]MakespanRow, error) {
	rows0, err := RestartStudy(o, np)
	if err != nil {
		return nil, err
	}
	// Component census for the system MTBF: every injectable component
	// counts; links only degrade, so they do not interrupt the job.
	census, err := build(o, scenario{NP: np, Stream: streamSeed})
	if err != nil {
		return nil, err
	}
	ncomp := census.components()
	var rows []MakespanRow
	for _, r0 := range rows0 {
		for _, mult := range []float64{0.25, 0.5, 1, 2, 4} {
			mtbf := mtbfHours * mult
			M := mtbf * 3600 / float64(ncomp)
			C, R := r0.WriteSec, r0.RestartSec
			tau := youngInterval(C, M)
			T := dalyMakespan(M, C, R, tau, makespanWork)
			rows = append(rows, MakespanRow{
				Strategy: r0.Strategy, NP: np,
				MTBFHours: mtbf, SysMTBF: M,
				C: C, R: R, TauOpt: tau,
				NumCkpts:      makespanWork / tau,
				MakespanHours: T / 3600,
				Overhead:      100 * (T - makespanWork) / makespanWork,
			})
		}
	}
	return rows, nil
}

// youngInterval is Young's first-order optimum checkpoint interval for
// checkpoint cost C at system MTBF M: sqrt(2*C*M), the tau that minimizes
// the first-order waste per unit of work, C/tau + tau/(2*M).
func youngInterval(C, M float64) float64 {
	return math.Sqrt(2 * C * M)
}

// dalyMakespan is Daly's first-order expected makespan for work seconds of
// computation checkpointed every tau seconds, at system MTBF M with
// checkpoint cost C and restart cost R: each of the work/tau segments costs
// M*e^{R/M}*(e^{(tau+C)/M}-1). As M grows it tends to work*(tau+C)/tau,
// the failure-free checkpoint bill.
func dalyMakespan(M, C, R, tau, work float64) float64 {
	return M * math.Exp(R/M) * (math.Exp((tau+C)/M) - 1) * (work / tau)
}
