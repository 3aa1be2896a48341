package ckpt

import (
	"repro/internal/mpiio"
	"repro/internal/registry"
)

// Descriptor describes one registered checkpoint strategy: a stable name
// for CLIs and experiment tables, the paper's legend label, and a factory
// that builds the strategy for a given processor count (some strategies —
// coIO's np:nf=64:1 arm — scale a knob with np). Strategy lists everywhere
// (experiments, cluster workloads, both CLIs) derive from this one
// registry instead of scattered struct literals.
type Descriptor struct {
	// Name is the canonical registry key ("rbio", "coio1", ...).
	Name string
	// Label is the paper's legend string for headline tables ("rbIO,
	// np:ng=64:1, nf=ng").
	Label string
	// New builds the strategy for an np-rank run.
	New func(np int) Strategy
}

// DefaultStrategy is what an empty name resolves to (the paper's headline
// configuration, matching the nekcem CLI default).
const DefaultStrategy = "rbio"

var strategies = registry.New[Descriptor]("ckpt strategy", DefaultStrategy)

// Register installs a strategy descriptor under its name. A nil
// factory is a wiring bug and panics, like a colliding name.
func Register(d Descriptor) {
	if d.New == nil {
		panic("ckpt: Register with nil factory for " + d.Name)
	}
	strategies.Register(d.Name, d)
}

// Strategies returns the registered descriptors in registration order.
func Strategies() []Descriptor { return strategies.All() }

// Lookup resolves a strategy name to its descriptor. The empty
// string resolves to DefaultStrategy; an unregistered name returns a
// *registry.UnknownError listing the valid choices.
func Lookup(name string) (Descriptor, error) { return strategies.Lookup(name) }

// New resolves a strategy name and builds it for an np-rank run.
func New(name string, np int) (Strategy, error) {
	d, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	return d.New(np), nil
}

// MustNew is New for statically-known names; it panics on lookup failure.
func MustNew(name string, np int) Strategy {
	s, err := New(name, np)
	if err != nil {
		panic(err)
	}
	return s
}

// HeadlineNames are the paper's five Figure-5 configurations in legend
// order; experiment sweeps derive both their strategy lists and their
// labels from these descriptors.
var HeadlineNames = []string{"1pfpp", "coio1", "coio", "rbio1", "rbio"}

func init() {
	Register(Descriptor{
		Name:  "1pfpp",
		Label: "1PFPP",
		New:   func(int) Strategy { return OnePFPP{} },
	})
	Register(Descriptor{
		Name:  "coio1",
		Label: "coIO, nf=1",
		New: func(int) Strategy {
			return CoIO{NumFiles: 1, Hints: mpiio.DefaultHints()}
		},
	})
	Register(Descriptor{
		Name:  "coio",
		Label: "coIO, np:nf=64:1",
		New: func(np int) Strategy {
			return CoIO{NumFiles: np / 64, Hints: mpiio.DefaultHints()}
		},
	})
	Register(Descriptor{
		Name:  "rbio1",
		Label: "rbIO, np:ng=64:1, nf=1",
		New: func(int) Strategy {
			return RbIO{GroupSize: 64, SingleFile: true, WriterBuffer: 512 << 20, BufferFields: true, Hints: mpiio.DefaultHints()}
		},
	})
	Register(Descriptor{
		Name:  "rbio",
		Label: "rbIO, np:ng=64:1, nf=ng",
		New:   func(int) Strategy { return DefaultRbIO() },
	})
	Register(Descriptor{
		Name:  "multilevel",
		Label: "multilevel, local+rbIO/4",
		New:   func(int) Strategy { return DefaultMultiLevel() },
	})
	Register(Descriptor{
		Name:  "async",
		Label: "async, node-agg flush",
		New:   func(int) Strategy { return DefaultAsync() },
	})
}
