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
	// fault experiments (driver -mtbf flag; 0 means the default 6h).
	MTBF float64
	// Tenants is the multi-tenant experiments' job count (driver -tenants
	// flag; 0 means the default 2).
	Tenants int
	// Workload is the workload experiment's generator spec (driver
	// -workload flag; "" means cluster.DefaultWorkload).
	Workload string
	// Work is the recovery lifecycle's solver-step budget (driver -work
	// flag; 0 means the default 120).
	Work int
	// Epochs is the recovery lifecycle's checkpoint-epoch count over that
	// budget (driver -epochs flag; 0 means the default 12).
	Epochs int

	headline     []HeadlineRow
	headlineErr  error
	headlineDone bool
}

// NewSession returns a session writing to out (os.Stdout when nil).
func NewSession(o Options, out io.Writer) *Session {
	if out == nil {
		out = os.Stdout
	}
	return &Session{Opts: o, Out: out}
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

func (s *Session) tenants() int {
	if s.Tenants > 0 {
		return s.Tenants
	}
	return 2
}

func (s *Session) mtbf() float64 {
	if s.MTBF > 0 {
		return s.MTBF
	}
	return 6
}

func (s *Session) work() int {
	if s.Work > 0 {
		return s.Work
	}
	return 120
}

func (s *Session) epochs() int {
	if s.Epochs > 0 {
		return s.Epochs
	}
	return 12
}

func (s *Session) printf(format string, args ...any) {
	fmt.Fprintf(s.Out, format, args...)
}

func init() {
	Register(Descriptor{
		Name: "fig5", Doc: "write bandwidth of the five approaches (weak scaling)",
		Run: func(s *Session) error {
			rows, err := s.Headline()
			if err != nil {
				return err
			}
			s.printf("== Figure 5: write bandwidth ==\n%s\n", Fig5Table(rows))
			return nil
		},
	})
	Register(Descriptor{
		Name: "fig6", Doc: "overall time per checkpoint step",
		Run: func(s *Session) error {
			rows, err := s.Headline()
			if err != nil {
				return err
			}
			s.printf("== Figure 6: overall time per checkpoint step ==\n%s\n", HeadlineTable(6, rows))
			return nil
		},
	})
	Register(Descriptor{
		Name: "fig7", Doc: "checkpoint/computation ratio",
		Run: func(s *Session) error {
			rows, err := s.Headline()
			if err != nil {
				return err
			}
			s.printf("== Figure 7: checkpoint/computation ratio ==\n%s\n", HeadlineTable(7, rows))
			return nil
		},
	})
	Register(Descriptor{
		Name: "fig8", Doc: "rbIO bandwidth vs number of files",
		Run: func(s *Session) error {
			rows, err := Fig8(s.Opts)
			if err != nil {
				return err
			}
			s.printf("== Figure 8: rbIO bandwidth vs number of files ==\n%s\n", table.Of(rows))
			return nil
		},
	})
	Register(Descriptor{
		Name: "fig9", Doc: "per-rank I/O time distribution, 1PFPP",
		Run: func(s *Session) error {
			d, err := Fig9(s.Opts)
			if err != nil {
				return err
			}
			s.printf("== Figure 9: per-rank I/O time distribution, 1PFPP ==\n%s\n%s\n", d.Table(), d.Plot())
			return nil
		},
	})
	Register(Descriptor{
		Name: "fig10", Doc: "per-rank I/O time distribution, coIO 64:1",
		Run: func(s *Session) error {
			d, err := Fig10(s.Opts)
			if err != nil {
				return err
			}
			s.printf("== Figure 10: per-rank I/O time distribution, coIO 64:1 ==\n%s\n%s\n", d.Table(), d.Plot())
			return nil
		},
	})
	Register(Descriptor{
		Name: "fig11", Doc: "per-rank I/O time distribution, rbIO",
		Run: func(s *Session) error {
			d, err := Fig11(s.Opts)
			if err != nil {
				return err
			}
			s.printf("== Figure 11: per-rank I/O time distribution, rbIO ==\n%s\n%s\n", d.Table(), d.Plot())
			return nil
		},
	})
	Register(Descriptor{
		Name: "fig12", Doc: "write activity over time, rbIO vs coIO",
		Run: func(s *Session) error {
			rows, err := Fig12(s.Opts)
			if err != nil {
				return err
			}
			s.printf("== Figure 12: write activity, rbIO vs coIO ==\n%s\n", table.Of(rows))
			return nil
		},
	})
	Register(Descriptor{
		Name: "table1", Doc: "perceived write performance of rbIO workers",
		Run: func(s *Session) error {
			rows, err := TableI(s.Opts)
			if err != nil {
				return err
			}
			s.printf("== Table I: perceived write performance (rbIO) ==\n%s\n", table.Of(rows))
			return nil
		},
	})
	Register(Descriptor{
		Name: "eq1", Doc: "production improvement, rbIO over 1PFPP",
		Run: func(s *Session) error {
			res, err := Eq1(s.Opts, s.NPOr(16384), 20)
			if err != nil {
				return err
			}
			s.printf("== Equation 1: production improvement, rbIO over 1PFPP ==\n%s\n", table.Of([]Eq1Result{*res}))
			return nil
		},
	})
	Register(Descriptor{
		Name: "eq7", Doc: "blocked-time speedup, rbIO over coIO",
		Run: func(s *Session) error {
			res, err := Speedup(s.Opts, s.NPOr(16384))
			if err != nil {
				return err
			}
			s.printf("== Equations 2-7: blocked-time speedup, rbIO over coIO ==\n%s\n", table.Of([]SpeedupResult{*res}))
			return nil
		},
	})
	Register(Descriptor{
		Name: "meshread", Doc: "global mesh read during presetup (Section III-B)",
		Run: func(s *Session) error {
			cases := []MeshReadRow{}
			if len(s.Opts.NPs) == 1 {
				cases = append(cases,
					MeshReadRow{E: 136 * 1024, NP: s.Opts.NPs[0]},
					MeshReadRow{E: 546 * 1024, NP: s.Opts.NPs[0]})
			}
			rows, err := MeshRead(s.Opts, cases...)
			if err != nil {
				return err
			}
			s.printf("== Section III-B: global mesh read (presetup) ==\n%s\n", table.Of(rows))
			return nil
		},
	})
	Register(Descriptor{
		Name: "fscompare", Doc: "GPFS vs PVFS vs burst buffer on identical hardware",
		Run: func(s *Session) error {
			rows, err := FSComparison(s.Opts, s.NPOr(16384))
			if err != nil {
				return err
			}
			s.printf("== Extension: GPFS vs PVFS (Section V-C1's unpublished comparison) ==\n%s\n", table.Of(rows))
			return nil
		},
	})
	Register(Descriptor{
		Name: "drainoverlap", Doc: "rbIO commit overlap, GPFS write-behind vs ION burst buffer",
		Run: func(s *Session) error {
			rows, err := DrainOverlap(s.Opts, s.NPOr(16384))
			if err != nil {
				return err
			}
			s.printf("== Extension: rbIO commit overlap, GPFS write-behind vs ION burst buffer ==\n%s\n", table.Of(rows))
			return nil
		},
	})
	Register(Descriptor{
		Name: "priorwork", Doc: "prior work [3]: rbIO on a 32K Blue Gene/L",
		Run: func(s *Session) error {
			rows, err := PriorWorkBGL(s.Opts)
			if err != nil {
				return err
			}
			s.printf("== Extension: prior work [3] — rbIO on 32K Blue Gene/L ==\n%s\n", table.Of(rows))
			return nil
		},
	})
	Register(Descriptor{
		Name: "restart", Doc: "restart (read-side) performance",
		Run: func(s *Session) error {
			rows, err := RestartStudy(s.Opts, s.NPOr(16384))
			if err != nil {
				return err
			}
			s.printf("== Extension: restart (read-side) performance ==\n%s\n", table.Of(rows))
			return nil
		},
	})
	Register(Descriptor{
		Name: "multilevel", Doc: "SCR-style multi-level checkpointing",
		Run: func(s *Session) error {
			rows, err := MultiLevelStudy(s.Opts, s.NPOr(16384))
			if err != nil {
				return err
			}
			s.printf("== Extension: SCR-style multi-level checkpointing ==\n%s\n", table.Of(rows))
			return nil
		},
	})
	Register(Descriptor{
		Name: "faultsweep", Doc: "checkpoint survivability under injected faults",
		Flags: "-mtbf",
		Run: func(s *Session) error {
			rows, err := FaultSweep(s.Opts, s.NPOr(2048), s.mtbf())
			if err != nil {
				return err
			}
			s.printf("== Extension: checkpoint survivability under injected faults ==\n%s\n", table.Of(rows))
			return nil
		},
	})
	Register(Descriptor{
		Name: "makespan", Doc: "expected makespan (Daly model on measured C and R)",
		Flags: "-mtbf",
		Run: func(s *Session) error {
			rows, err := Makespan(s.Opts, s.NPOr(2048), s.mtbf())
			if err != nil {
				return err
			}
			s.printf("== Extension: expected makespan (Daly model on measured C and R) ==\n%s\n", table.Of(rows))
			return nil
		},
	})
	Register(Descriptor{
		Name: "recovery", Doc: "closed-loop checkpoint/restart lifecycle: measured makespan vs the Daly model",
		Flags: "-mtbf, -epochs, -work, -np",
		Run: func(s *Session) error {
			rows, err := RecoveryStudy(s.Opts, s.NPOr(2048), s.mtbf(), s.work(), s.epochs())
			if err != nil {
				return err
			}
			s.printf("== Extension: closed-loop recovery — measured makespan vs the Daly model ==\n%s\n", RecoveryTable(rows))
			return nil
		},
	})
	Register(Descriptor{
		Name: "ablations", Doc: "design-choice ablations (alignment, buffering, grouping, noise)",
		Run: func(s *Session) error {
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
					return err
				}
				all = append(all, rows...)
			}
			s.printf("== Design-choice ablations ==\n%s\n", table.Of(all))
			return nil
		},
	})

	registerClusterExperiments()
}
