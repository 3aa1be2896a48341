package exp

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/bbuf"
	"repro/internal/fsys"
	"repro/internal/machine"
	"repro/internal/registry"
)

// Flags are the command-line flags with one meaning in every driver: the
// seed, the storage stack (-fs, -bb, -drain), the machine (-machine, -map),
// the noise switch and the partitioned kernel's worker count. DeclareFlags
// defines them and Options validates them, so iobench and nekcem reject a
// bad value the same way.
type Flags struct {
	seed                              uint64
	fs, bb, drain, machine, placement string
	quiet                             bool
	shards                            int
}

// DeclareFlags defines the shared flags on fs.
func DeclareFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.Uint64Var(&f.seed, "seed", 1, "simulation seed")
	fs.StringVar(&f.fs, "fs", string(fsys.DefaultBackend), "storage backend from the fsys registry: gpfs, pvfs, bbuf (experiments that compare backends or tune GPFS knobs pick their own)")
	fs.StringVar(&f.bb, "bb", "", "burst-buffer fleet spec <nodes>x<gbps> for -fs bbuf (e.g. 8x0.25); \"\" = one private node per ION at the default bandwidth")
	fs.StringVar(&f.drain, "drain", "", "burst-buffer drain-scheduler policy for -fs bbuf: fifo (default), deadline, tenant")
	fs.StringVar(&f.machine, "machine", "", "machine preset: intrepid (default), bgl, fattree, dragonfly (experiments that pin a machine ignore it)")
	fs.StringVar(&f.placement, "map", "", "rank->node placement policy override: txyz (machine default), xyzt, blocked, roundrobin, random")
	fs.BoolVar(&f.quiet, "quiet", false, "disable the shared-storage noise model (server spikes); metadata jitter stays on, so results still depend on -seed")
	fs.IntVar(&f.shards, "shards", 0, "partitioned-kernel lane workers inside each simulation (0 or 1 = serial kernel; runs that need the serial kernel, such as a -log run, keep it); results are identical at any setting")
	return f
}

// Options validates the shared flags for a run at the processor counts nps
// (the paper's PaperNPs when none) and returns the Options they feed, with
// NPs set to nps. Every rejection is typed: a *registry.UnknownError for a
// name no registry holds, a *bbuf.SpecError for a malformed -bb, a
// *FlagError for a number out of range.
func (f *Flags) Options(nps ...int) (Options, error) {
	backend, err := fsys.Lookup(f.fs)
	if err != nil {
		return Options{}, err
	}
	if f.shards < 0 {
		return Options{}, &FlagError{"shards", f.shards, "want >= 0; 0 or 1 = serial kernel"}
	}
	bbNodes, bbGbps, err := bbuf.ParseFleetSpec(f.bb)
	if err != nil {
		return Options{}, err
	}
	if _, err := bbuf.Lookup(f.drain); err != nil {
		return Options{}, err
	}
	d, err := machine.Lookup(f.machine)
	if err != nil {
		return Options{}, err
	}
	o := Options{
		Seed:      f.seed,
		NPs:       nps,
		Quiet:     f.quiet,
		FS:        backend,
		Machine:   f.machine,
		Map:       f.placement,
		Shards:    f.shards,
		BBNodes:   bbNodes,
		BBDrainBW: bbGbps * 1e9,
		Drain:     f.drain,
	}
	for _, n := range o.nps() {
		cfg := d.Config(n)
		if f.placement != "" {
			cfg.Placement = f.placement
		}
		if err := cfg.Validate(); err != nil {
			var ue *registry.UnknownError
			if !errors.As(err, &ue) {
				err = &FlagError{"np", n, err.Error()}
			}
			return Options{}, err
		}
	}
	return o, nil
}

// FlagError reports a flag value out of range.
type FlagError struct {
	Flag  string
	Value any
	Why   string
}

func (e *FlagError) Error() string { return fmt.Sprintf("invalid -%s %v (%s)", e.Flag, e.Value, e.Why) }

// WriteFile creates path, writes it with write and closes it, returning the
// first error: how the drivers save a trace or an I/O log.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
