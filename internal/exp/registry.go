package exp

import (
	"fmt"
	"io"
	"os"

	"repro/internal/registry"
	"repro/internal/table"
)

// Descriptor is one runnable experiment in the registry: its canonical
// name, one-line documentation, the extra flags it consumes, and the run
// body. Drivers (cmd/iobench) iterate the registry instead of hard-coding
// an experiment list, so adding an experiment is one Register call.
type Descriptor struct {
	Name string
	// Doc is a one-line description shown by `iobench -exp list`.
	Doc string
	// Flags documents driver flags beyond the common set that the
	// experiment consumes (e.g. "-mtbf"). Empty for most.
	Flags string
	// Run executes the experiment and prints its tables to s.Out.
	Run func(s *Session) error
}

// experiments has no default: an experiment is always named.
var experiments = registry.New[Descriptor]("exp experiment", "")

// Register installs an experiment descriptor.
func Register(d Descriptor) { experiments.Register(d.Name, d) }

// Experiments returns the registered descriptors in registration order.
func Experiments() []Descriptor { return experiments.All() }

// Lookup resolves an experiment name; an unknown one returns a
// *registry.UnknownError.
func Lookup(name string) (Descriptor, error) { return experiments.Lookup(name) }

// Session is the shared state of one driver invocation: the options every
// experiment runs with, where tables go, and results shared between
// experiments (figures 5-7 are different projections of the same runs, so
// the headline grid is computed once and memoized).
type Session struct {
	Opts Options
	Out  io.Writer
	// MTBF is the per-component mean time between failures in hours for the
	// fault experiments (driver -mtbf flag).
	MTBF float64
	// Tenants is the multi-tenant experiments' job count (driver -tenants
	// flag).
	Tenants int
	// Workload is the workload experiment's generator spec (driver
	// -workload flag; "" means DefaultWorkload).
	Workload string
	// Work is the recovery lifecycle's solver-step budget (driver -work
	// flag).
	Work int
	// Epochs is the recovery lifecycle's checkpoint-epoch count over that
	// budget (driver -epochs flag).
	Epochs int

	headline     []HeadlineRow
	headlineErr  error
	headlineDone bool
}

// NewSession returns a session writing to out (os.Stdout when nil). It
// holds the one copy of the defaults of MTBF, Tenants, Work and Epochs:
// iobench declares those flags on the session's fields.
func NewSession(o Options, out io.Writer) *Session {
	if out == nil {
		out = os.Stdout
	}
	return &Session{Opts: o, Out: out, MTBF: 6, Tenants: 2, Work: 120, Epochs: 12}
}

// Headline returns the shared headline grid (Figures 5-7), running it on
// first use and memoizing the result for the session.
func (s *Session) Headline() ([]HeadlineRow, error) {
	if !s.headlineDone {
		s.headline, s.headlineErr = Headline(s.Opts)
		s.headlineDone = true
	}
	return s.headline, s.headlineErr
}

// NPOr returns the sweep's single processor count if the options pin one,
// and def otherwise — the scaling rule every fixed-scale experiment uses
// for the -np override.
func (s *Session) NPOr(def int) int { return s.Opts.npOr(def) }

func (s *Session) printf(format string, args ...any) {
	fmt.Fprintf(s.Out, format, args...)
}

// tableRun is the Run of an experiment that prints one table: it runs rows
// and prints the result as "== title ==" over table.Of.
func tableRun[R any](title string, rows func(*Session) ([]R, error)) func(*Session) error {
	return func(s *Session) error {
		r, err := rows(s)
		if err != nil {
			return err
		}
		s.printf("== %s ==\n%s\n", title, table.Of(r))
		return nil
	}
}

// oneRow turns a single result into a one-row table.
func oneRow[R any](r *R, err error) ([]R, error) {
	if err != nil {
		return nil, err
	}
	return []R{*r}, nil
}

// init registers every experiment; `iobench -exp list` and `-exp all`
// follow this order.
func init() {
	Register(Descriptor{
		Name: "asyncfrontier", Doc: "async vs rbIO vs coIO: blocked time, makespan, staleness at failure",
		Flags: "-mtbf, -np",
		Run: tableRun("Extension: asynchronous checkpoint frontier", func(s *Session) ([]AsyncFrontierRow, error) {
			return AsyncFrontier(s.Opts, s.NPOr(2048), s.MTBF, 0)
		}),
	})
	Register(Descriptor{
		Name: "bbsize", Doc: "burst-buffer fleet sizing: fleet nodes x drain policy x pset ratio",
		Flags: "-bb, -drain, -mtbf, -np",
		Run: func(s *Session) error {
			r, err := BBSize(s.Opts, s.NPOr(2048), s.MTBF)
			if err != nil {
				return err
			}
			s.printf("== Extension: burst-buffer fleet sizing ==\n%s\n", r.Table())
			s.printf("== bbsize: faulted arm (accelerated MTBF) ==\n%s\n", r.FaultTable())
			return nil
		},
	})
	Register(Descriptor{
		Name: "mapsweep", Doc: "checkpoint performance across rank-placement policies",
		Flags: "-machine -map",
		Run: tableRun("Extension: rank-placement (mapping) sweep", func(s *Session) ([]MapRow, error) {
			return MapSweep(s.Opts, s.NPOr(2048))
		}),
	})
	Register(Descriptor{
		Name: "psetratio", Doc: "checkpoint performance across compute:ION pset ratios",
		Flags: "-machine",
		Run: tableRun("Extension: compute:ION pset-ratio sweep", func(s *Session) ([]PsetRatioRow, error) {
			return PsetRatio(s.Opts, s.NPOr(2048))
		}),
	})
	// Figures 5-7 are three views of one memoized headline grid.
	for _, f := range []struct {
		fig        int
		doc, title string
	}{
		{5, "write bandwidth of the five approaches (weak scaling)", "write bandwidth"},
		{6, "overall time per checkpoint step", "overall time per checkpoint step"},
		{7, "checkpoint/computation ratio", "checkpoint/computation ratio"},
	} {
		Register(Descriptor{
			Name: fmt.Sprintf("fig%d", f.fig), Doc: f.doc,
			Run: func(s *Session) error {
				rows, err := s.Headline()
				if err != nil {
					return err
				}
				s.printf("== Figure %d: %s ==\n%s\n", f.fig, f.title, HeadlineTable(f.fig, rows))
				return nil
			},
		})
	}
	Register(Descriptor{
		Name: "fig8", Doc: "rbIO bandwidth vs number of files",
		Run: tableRun("Figure 8: rbIO bandwidth vs number of files", func(s *Session) ([]Fig8Row, error) {
			return Fig8(s.Opts)
		}),
	})
	// Figures 9-11 are one per-rank distribution each.
	for _, f := range []struct {
		fig      int
		approach string
		run      func(Options) (*Distribution, error)
	}{{9, "1PFPP", Fig9}, {10, "coIO 64:1", Fig10}, {11, "rbIO", Fig11}} {
		Register(Descriptor{
			Name: fmt.Sprintf("fig%d", f.fig), Doc: "per-rank I/O time distribution, " + f.approach,
			Run: func(s *Session) error {
				d, err := f.run(s.Opts)
				if err != nil {
					return err
				}
				s.printf("== Figure %d: per-rank I/O time distribution, %s ==\n%s\n%s\n", f.fig, f.approach, d.Table(), d.Plot())
				return nil
			},
		})
	}
	Register(Descriptor{
		Name: "fig12", Doc: "write activity over time, rbIO vs coIO",
		Run: tableRun("Figure 12: write activity, rbIO vs coIO", func(s *Session) ([]Fig12Row, error) {
			return Fig12(s.Opts)
		}),
	})
	Register(Descriptor{
		Name: "table1", Doc: "perceived write performance of rbIO workers",
		Run: tableRun("Table I: perceived write performance (rbIO)", func(s *Session) ([]TableIRow, error) {
			return TableI(s.Opts)
		}),
	})
	Register(Descriptor{
		Name: "eq1", Doc: "production improvement, rbIO over 1PFPP",
		Run: tableRun("Equation 1: production improvement, rbIO over 1PFPP", func(s *Session) ([]Eq1Result, error) {
			return oneRow(Eq1(s.Opts, s.NPOr(16384), 20))
		}),
	})
	Register(Descriptor{
		Name: "eq7", Doc: "blocked-time speedup, rbIO over coIO",
		Run: tableRun("Equations 2-7: blocked-time speedup, rbIO over coIO", func(s *Session) ([]SpeedupResult, error) {
			return oneRow(Speedup(s.Opts, s.NPOr(16384)))
		}),
	})
	Register(Descriptor{
		Name: "meshread", Doc: "global mesh read during presetup (Section III-B)",
		Run: tableRun("Section III-B: global mesh read (presetup)", func(s *Session) ([]MeshReadRow, error) {
			cases := []MeshReadRow{}
			if len(s.Opts.NPs) == 1 {
				cases = append(cases,
					MeshReadRow{E: 136 * 1024, NP: s.Opts.NPs[0]},
					MeshReadRow{E: 546 * 1024, NP: s.Opts.NPs[0]})
			}
			return MeshRead(s.Opts, cases...)
		}),
	})
	Register(Descriptor{
		Name: "fscompare", Doc: "GPFS vs PVFS vs burst buffer on identical hardware",
		Run: tableRun("Extension: GPFS vs PVFS (Section V-C1's unpublished comparison)", func(s *Session) ([]FSRow, error) {
			return FSComparison(s.Opts, s.NPOr(16384))
		}),
	})
	Register(Descriptor{
		Name: "drainoverlap", Doc: "rbIO commit overlap, GPFS write-behind vs ION burst buffer",
		Run: tableRun("Extension: rbIO commit overlap, GPFS write-behind vs ION burst buffer", func(s *Session) ([]DrainRow, error) {
			return DrainOverlap(s.Opts, s.NPOr(16384))
		}),
	})
	Register(Descriptor{
		Name: "priorwork", Doc: "prior work [3]: rbIO on a 32K Blue Gene/L",
		Run: tableRun("Extension: prior work [3] — rbIO on 32K Blue Gene/L", func(s *Session) ([]PriorWorkRow, error) {
			return PriorWorkBGL(s.Opts)
		}),
	})
	Register(Descriptor{
		Name: "restart", Doc: "restart (read-side) performance",
		Run: tableRun("Extension: restart (read-side) performance", func(s *Session) ([]RestartRow, error) {
			return RestartStudy(s.Opts, s.NPOr(16384))
		}),
	})
	Register(Descriptor{
		Name: "multilevel", Doc: "SCR-style multi-level checkpointing",
		Run: tableRun("Extension: SCR-style multi-level checkpointing", func(s *Session) ([]MLRow, error) {
			return MultiLevelStudy(s.Opts, s.NPOr(16384))
		}),
	})
	Register(Descriptor{
		Name: "faultsweep", Doc: "checkpoint survivability under injected faults",
		Flags: "-mtbf",
		Run: tableRun("Extension: checkpoint survivability under injected faults", func(s *Session) ([]FaultRow, error) {
			return FaultSweep(s.Opts, s.NPOr(2048), s.MTBF)
		}),
	})
	Register(Descriptor{
		Name: "makespan", Doc: "expected makespan (Daly model on measured C and R)",
		Flags: "-mtbf",
		Run: tableRun("Extension: expected makespan (Daly model on measured C and R)", func(s *Session) ([]MakespanRow, error) {
			return Makespan(s.Opts, s.NPOr(2048), s.MTBF)
		}),
	})
	Register(Descriptor{
		Name: "recovery", Doc: "closed-loop checkpoint/restart lifecycle: measured makespan vs the Daly model",
		Flags: "-mtbf, -epochs, -work, -np",
		Run: tableRun("Extension: closed-loop recovery — measured makespan vs the Daly model", func(s *Session) ([]RecoveryRow, error) {
			return RecoveryStudy(s.Opts, s.NPOr(2048), s.MTBF, s.Work, s.Epochs)
		}),
	})
	Register(Descriptor{
		Name: "ablations", Doc: "design-choice ablations (alignment, buffering, grouping, noise)",
		Run: tableRun("Design-choice ablations", func(s *Session) ([]AblationRow, error) {
			np16, np64 := s.NPOr(16384), s.NPOr(65536)
			var all []AblationRow
			for _, f := range []func() ([]AblationRow, error){
				func() ([]AblationRow, error) { return AblateAlignment(s.Opts, np16) },
				func() ([]AblationRow, error) { return AblateWriterBuffer(s.Opts, np16) },
				func() ([]AblationRow, error) { return AblateGroupRatio(s.Opts, np16) },
				func() ([]AblationRow, error) { return AblateIONCache(s.Opts, np16) },
				func() ([]AblationRow, error) { return AblateNoise(s.Opts, np64) },
				func() ([]AblationRow, error) { return AblateBlockSize(s.Opts, np16) },
			} {
				rows, err := f()
				if err != nil {
					return nil, err
				}
				all = append(all, rows...)
			}
			return all, nil
		}),
	})
	Register(Descriptor{
		Name:  "ckptstorm",
		Doc:   "tenant interference: colliding vs staggered checkpoints on shared storage",
		Flags: "-tenants, -np",
		Run: func(s *Session) error {
			r, err := CkptStorm(s.Opts, s.NPOr(2048), s.Tenants)
			if err != nil {
				return err
			}
			s.printf("== ckptstorm: %d tenants x np=%d on a %d-rank machine ==\n%s\n%s\n", r.Tenants, r.NP, r.Capacity, table.Of(r.Rows), table.Of(r.Summaries))
			w := r.WorstColliding()
			s.printf("worst colliding penalty %.2fx (%s); staggering recovers it\n", w.CollidingPenalty, w.Strategy)
			return nil
		},
	})
	Register(Descriptor{
		Name:  "restartstorm",
		Doc:   "system-wide outage, then every tenant restarts at once",
		Flags: "-tenants, -np",
		Run: func(s *Session) error {
			r, err := RestartStorm(s.Opts, s.NPOr(2048), s.Tenants)
			if err != nil {
				return err
			}
			s.printf("== restartstorm: %d tenants x np=%d, %vs outage ==\n%s\n", r.Tenants, r.NP, stormOutage, table.Of(r.Rows))
			s.printf("worst storm penalty %.2fx; fault events fired: %d fail, %d restore; manifest scans: %d torn epoch(s), %d B read\n",
				r.StormPenalty, r.FaultCounts.Fails, r.FaultCounts.Restores, r.Torn, r.ScanBytes)
			return nil
		},
	})
	Register(Descriptor{
		Name:  "workload",
		Doc:   "queued multi-tenant workload on an undersized machine",
		Flags: "-workload, -np",
		Run: func(s *Session) error {
			wk, err := ParseWorkload(s.Workload)
			if err != nil {
				return err
			}
			r, err := RunWorkload(s.Opts, wk)
			if err != nil {
				return err
			}
			s.printf("== workload: %d jobs on a %d-rank machine ==\n%s\nmakespan %.2fs\n", len(r.Jobs), r.Capacity, r.Table(), r.Makespan)
			return nil
		},
	})
}
