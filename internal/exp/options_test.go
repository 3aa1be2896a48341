package exp

import (
	"errors"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/registry"
)

// TestNormalizeDefaults pins the single place zero values resolve.
func TestNormalizeDefaults(t *testing.T) {
	n := Options{}.normalize()
	if n.Seed != 1 {
		t.Fatalf("default seed %d, want 1", n.Seed)
	}
	if n.Parallel != runtime.NumCPU() {
		t.Fatalf("default parallel %d, want NumCPU %d", n.Parallel, runtime.NumCPU())
	}
	if !reflect.DeepEqual(n.NPs, PaperNPs) {
		t.Fatalf("default NPs %v, want %v", n.NPs, PaperNPs)
	}
	if n.FS != "gpfs" {
		t.Fatalf("default FS %q, want gpfs", n.FS)
	}

	// Explicit values pass through untouched.
	o := Options{Seed: 9, Parallel: 2, NPs: []int{64}, FS: "bbuf"}
	if got := o.normalize(); !reflect.DeepEqual(got, o) {
		t.Fatalf("normalize changed explicit options: %+v -> %+v", o, got)
	}

	// Negative Parallel is as unset as zero.
	if got := (Options{Parallel: -4}).normalize().Parallel; got != runtime.NumCPU() {
		t.Fatalf("normalize(-4 workers) = %d, want NumCPU", got)
	}

	// The accessors delegate to normalize.
	if (Options{}).seed() != 1 || (Options{Seed: 5}).seed() != 5 {
		t.Fatal("seed() does not delegate to normalize")
	}
	if (Options{Parallel: 2}).workers() != 2 {
		t.Fatal("workers() does not delegate to normalize")
	}
	if !reflect.DeepEqual((Options{NPs: []int{8}}).nps(), []int{8}) {
		t.Fatal("nps() does not delegate to normalize")
	}
}

// TestExperimentRegistry sanity-checks the registry round-trip and that
// the empty name selects no experiment.
func TestExperimentRegistry(t *testing.T) {
	ds := Experiments()
	if len(ds) < 20 {
		t.Fatalf("only %d experiments registered", len(ds))
	}
	seen := map[string]bool{}
	for _, d := range ds {
		if d.Name == "" || d.Doc == "" || d.Run == nil {
			t.Fatalf("incomplete descriptor: %+v", d)
		}
		if seen[d.Name] {
			t.Fatalf("duplicate name %q in Experiments()", d.Name)
		}
		seen[d.Name] = true
		got, err := Lookup(d.Name)
		if err != nil || got.Name != d.Name {
			t.Fatalf("Lookup(%q) = %q, %v", d.Name, got.Name, err)
		}
	}
	for _, name := range []string{"no-such-exp", ""} {
		var ue *registry.UnknownError
		if _, err := Lookup(name); !errors.As(err, &ue) || ue.Kind != "exp experiment" {
			t.Fatalf("Lookup(%q) error %#v, want an exp experiment *registry.UnknownError", name, err)
		}
	}
}

// TestSessionNPOr pins the single-NP override rule.
func TestSessionNPOr(t *testing.T) {
	s := NewSession(Options{}, nil)
	if s.NPOr(16384) != 16384 {
		t.Fatal("NPOr without a pinned sweep must return the default")
	}
	s = NewSession(Options{NPs: []int{512}}, nil)
	if s.NPOr(16384) != 512 {
		t.Fatal("NPOr with a single-NP sweep must return it")
	}
	s = NewSession(Options{NPs: []int{512, 1024}}, nil)
	if s.NPOr(16384) != 16384 {
		t.Fatal("NPOr with a multi-NP sweep must return the default")
	}
}
