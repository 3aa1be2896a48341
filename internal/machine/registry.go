package machine

import "repro/internal/registry"

// Descriptor is a registered machine preset: a named Config generator, the
// unit of selection for iobench -machine.
type Descriptor struct {
	Name   string
	Config func(ranks int) Config
}

// DefaultMachine is the preset selected by the empty machine name.
const DefaultMachine = "intrepid"

var presets = registry.New[Descriptor]("machine machine", DefaultMachine)

// Register adds a machine preset under its name. A nil Config
// is a wiring bug and panics, like a colliding name.
func Register(d Descriptor) {
	if d.Config == nil {
		panic("machine: Register with nil config for " + d.Name)
	}
	presets.Register(d.Name, d)
}

// Lookup resolves a machine name to its descriptor. The empty
// name selects DefaultMachine. Unknown names fail with a typed
// *registry.UnknownError listing the valid set.
func Lookup(name string) (Descriptor, error) { return presets.Lookup(name) }
