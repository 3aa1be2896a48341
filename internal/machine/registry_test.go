package machine_test

import (
	"errors"
	"sort"
	"testing"

	. "repro/internal/machine"
	"repro/internal/registry"
)

// TestLookupDefault checks that the empty name resolves to the Intrepid
// preset with no import beyond machine itself: the package registers its
// own presets.
func TestLookupDefault(t *testing.T) {
	d, err := Lookup("")
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != DefaultMachine {
		t.Fatalf("default machine %q, want %q", d.Name, DefaultMachine)
	}
	cfg := d.Config(1024)
	if cfg.Ranks != 1024 || cfg.RanksPerNode != 4 || cfg.NodesPerPset != 64 {
		t.Fatalf("intrepid config: %+v", cfg)
	}
}

// TestUnknownMachine checks the typed error and that its message lists the
// valid presets.
func TestUnknownMachine(t *testing.T) {
	_, err := Lookup("cray")
	var ue *registry.UnknownError
	if !errors.As(err, &ue) || ue.Kind != "machine machine" {
		t.Fatalf("error %#v is not a machine *registry.UnknownError", err)
	}
	if ue.Name != "cray" {
		t.Fatalf("error name %q", ue.Name)
	}
	const want = `machine: unknown machine "cray" (valid: bgl, dragonfly, fattree, intrepid)`
	if err.Error() != want {
		t.Fatalf("error message %q, want %q", err.Error(), want)
	}
}

// TestDuplicateRegistrationPanics checks that machine presets go through the
// registry's wiring-bug guard for empty and colliding names, plus the
// nil-config guard.
func TestDuplicateRegistrationPanics(t *testing.T) {
	mustPanic := func(what string, d Descriptor) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", what)
			}
		}()
		Register(d)
	}
	cfg := func(ranks int) Config { return Config{} }
	mustPanic("duplicate name", Descriptor{Name: "intrepid", Config: cfg})
	mustPanic("empty name", Descriptor{Config: cfg})
	mustPanic("nil config", Descriptor{Name: "zz-test2"})
}

// TestMachinesSorted checks the listing used by error messages and -machine
// docs is sorted.
func TestMachinesSorted(t *testing.T) {
	_, err := Lookup("cray")
	var ue *registry.UnknownError
	if !errors.As(err, &ue) {
		t.Fatal(err)
	}
	if !sort.StringsAreSorted(ue.Known) {
		t.Fatalf("listing not sorted: %v", ue.Known)
	}
}
