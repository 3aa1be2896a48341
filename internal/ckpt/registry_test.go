package ckpt

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/registry"
)

// mustPanicContains asserts fn panics with a message containing want.
func mustPanicContains(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic (want one containing %q)", want)
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
			t.Fatalf("panic %q, want it to contain %q", msg, want)
		}
	}()
	fn()
}

// TestRegisterWiringBugsPanic pins Register's validation against the live
// strategy registry: every wiring bug panics before any registry state is
// mutated. The generic collision rules are in the registry package; this
// pins that ckpt routes through them and adds the nil-factory guard.
func TestRegisterWiringBugsPanic(t *testing.T) {
	ok := func(int) Strategy { return OnePFPP{} }
	for _, tc := range []struct {
		want string
		d    Descriptor
	}{
		{"empty ckpt strategy name", Descriptor{New: ok}},
		{"nil factory", Descriptor{Name: "x-nilfactory"}},
		{`duplicate ckpt strategy registration "rbio"`, Descriptor{Name: "rbio", New: ok}},
		{`duplicate ckpt strategy registration "multilevel"`, Descriptor{Name: "multilevel", New: ok}},
	} {
		mustPanicContains(t, tc.want, func() { Register(tc.d) })
	}
	if _, err := Lookup("x-nilfactory"); err == nil {
		t.Error(`failed registration of "x-nilfactory" left it in the registry`)
	}
}

// TestLookupDefault pins the resolution rule CLIs rely on: the empty string
// means the paper's headline configuration.
func TestLookupDefault(t *testing.T) {
	d, err := Lookup("")
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != DefaultStrategy {
		t.Fatalf("empty name resolved to %q, want %q", d.Name, DefaultStrategy)
	}
}

// TestLookupUnknownTypedError pins the error surface both CLIs print on
// exit 2: the shared registry error, byte for byte.
func TestLookupUnknownTypedError(t *testing.T) {
	_, err := Lookup("mpiio")
	var ue *registry.UnknownError
	if !errors.As(err, &ue) || ue.Kind != "ckpt strategy" {
		t.Fatalf("Lookup error is %#v, want a ckpt strategy *registry.UnknownError", err)
	}
	const want = `ckpt: unknown strategy "mpiio" (valid: 1pfpp, async, coio, coio1, multilevel, rbio, rbio1)`
	if err.Error() != want {
		t.Errorf("error %q, want %q", err.Error(), want)
	}
}

// TestNewScalesWithNP pins the factory contract: descriptors that scale a
// knob with the processor count get the run's np.
func TestNewScalesWithNP(t *testing.T) {
	s, err := New("coio", 4096)
	if err != nil {
		t.Fatal(err)
	}
	if co, ok := s.(CoIO); !ok || co.NumFiles != 64 {
		t.Fatalf("coio at np 4096 built %#v, want CoIO with 64 files", s)
	}
	if _, err := New("nope", 8); err == nil {
		t.Fatal("unknown name built a strategy")
	}
	mustPanicContains(t, "unknown strategy", func() { MustNew("nope", 8) })
}

// TestHeadlineNamesLeadTheRegistry pins what the experiment sweeps derive
// from the registry: the five Figure-5 arms come first, in legend order,
// each with a label, and build working strategies.
func TestHeadlineNamesLeadTheRegistry(t *testing.T) {
	ds := Strategies()
	if len(ds) < len(HeadlineNames) {
		t.Fatalf("registry holds %d strategies, want >= %d", len(ds), len(HeadlineNames))
	}
	for i, name := range HeadlineNames {
		d := ds[i]
		if d.Name != name {
			t.Errorf("registry slot %d is %q, want headline %q", i, d.Name, name)
		}
		if d.Label == "" {
			t.Errorf("headline %q has no legend label", name)
		}
		if s := d.New(2048); s.Name() == "" {
			t.Errorf("headline %q built a strategy with an empty name", name)
		}
	}
}
