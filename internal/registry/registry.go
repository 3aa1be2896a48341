// Package registry is the one shape every named choice in the simulator
// takes: checkpoint strategies, file-system backends, machine presets,
// topologies, placements, drain schedulers and experiments. A Registry
// holds values under names, lists them in registration order, resolves the
// empty name to a default, and reports an unknown name with one typed error
// listing the valid choices.
package registry

import (
	"fmt"
	"slices"
	"strings"
)

// Registry maps names to values of one kind. Entries are registered from
// package init, so a colliding name is a wiring bug and Register panics;
// after init a Registry is only read.
type Registry[T any] struct {
	kind  string
	def   string
	index map[string]int // name -> position in vals
	names []string       // names, registration order
	vals  []T
}

// New returns an empty registry. kind names what it holds, qualified by the
// owning package ("ckpt strategy"); it prefixes panics and UnknownError.
// def is the name the empty string resolves to ("" = no default).
func New[T any](kind, def string) *Registry[T] {
	return &Registry[T]{kind: kind, def: def, index: map[string]int{}}
}

// Register installs v under name. It panics on an empty name and on a name
// that is already taken.
func (r *Registry[T]) Register(name string, v T) {
	if name == "" {
		panic(fmt.Sprintf("registry: empty %s name", r.kind))
	}
	if _, taken := r.index[name]; taken {
		panic(fmt.Sprintf("registry: duplicate %s registration %q", r.kind, name))
	}
	r.index[name] = len(r.vals)
	r.names = append(r.names, name)
	r.vals = append(r.vals, v)
}

// Lookup resolves a name to its value. The empty name resolves to
// the default; a name nothing answers to returns an *UnknownError.
func (r *Registry[T]) Lookup(name string) (T, error) {
	if name == "" {
		name = r.def
	}
	i, ok := r.index[name]
	if !ok {
		var zero T
		return zero, &UnknownError{Kind: r.kind, Name: name, Known: r.Names()}
	}
	return r.vals[i], nil
}

// All returns the registered values in registration order.
func (r *Registry[T]) All() []T { return slices.Clone(r.vals) }

// Names returns the names, sorted.
func (r *Registry[T]) Names() []string {
	names := slices.Clone(r.names)
	slices.Sort(names)
	return names
}

// UnknownError reports a name no registry entry answers to.
type UnknownError struct {
	Kind  string   // the registry's package-qualified kind, e.g. "ckpt strategy"
	Name  string   // the name looked up
	Known []string // the valid names, sorted
}

// Error renders `<package>: unknown <noun> "<name>" (valid: a, b, ...)`,
// splitting Kind at its first space.
func (e *UnknownError) Error() string {
	pkg, noun, _ := strings.Cut(e.Kind, " ")
	return fmt.Sprintf("%s: unknown %s %q (valid: %s)", pkg, noun, e.Name, strings.Join(e.Known, ", "))
}
