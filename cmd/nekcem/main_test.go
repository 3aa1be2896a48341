package main

import (
	"errors"
	"testing"

	"repro/internal/ckpt"
)

// TestResolveStrategy pins the -ckpt/-nf resolution the command exits 2
// on: registry names and aliases build, -nf refines the file-count knob,
// and unknown names surface the registry's typed error.
func TestResolveStrategy(t *testing.T) {
	s, err := resolveStrategy("", 4096, 0)
	if err != nil || s.Name() != ckpt.DefaultRbIO().Name() {
		t.Fatalf("default resolution: %v, %v", s, err)
	}
	s, err = resolveStrategy("async", 4096, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.(ckpt.Async); !ok {
		t.Fatalf("-ckpt async built %T", s)
	}
	s, err = resolveStrategy("1pfpp", 4096, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.(ckpt.OnePFPP); !ok {
		t.Fatalf("-ckpt 1pfpp built %T", s)
	}
	// -nf refinement.
	s, err = resolveStrategy("coio", 4096, 16)
	if err != nil {
		t.Fatal(err)
	}
	if co := s.(ckpt.CoIO); co.NumFiles != 16 {
		t.Fatalf("-nf 16 built coIO with %d files", co.NumFiles)
	}
	s, err = resolveStrategy("rbio", 4096, 16)
	if err != nil {
		t.Fatal(err)
	}
	if rb := s.(ckpt.RbIO); rb.GroupSize != 256 {
		t.Fatalf("-nf 16 built rbIO with group size %d, want 256", rb.GroupSize)
	}
	// The exit-2 path: a typed unknown-strategy error.
	_, err = resolveStrategy("mpiio", 4096, 0)
	var ue *ckpt.UnknownStrategyError
	if !errors.As(err, &ue) {
		t.Fatalf("unknown -ckpt returned %v, want *ckpt.UnknownStrategyError", err)
	}
}

func TestValidateLifecycleFlags(t *testing.T) {
	set := func(names ...string) map[string]bool {
		m := map[string]bool{}
		for _, n := range names {
			m[n] = true
		}
		return m
	}
	cases := []struct {
		name    string
		epochs  int
		work    int
		set     map[string]bool
		wantErr bool
	}{
		{"defaults pass (lifecycle off)", 0, 0, set(), false},
		{"positive values pass", 4, 40, set("epochs", "work"), false},
		{"explicit zero epochs rejected", 0, 40, set("epochs", "work"), true},
		{"explicit negative epochs rejected", -1, 40, set("epochs"), true},
		{"explicit zero work rejected", 4, 0, set("work"), true},
		{"explicit negative work rejected", 4, -8, set("epochs", "work"), true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := validateLifecycleFlags(c.epochs, c.work, c.set)
			if (err != nil) != c.wantErr {
				t.Fatalf("validateLifecycleFlags(%d, %d, %v) = %v, wantErr %v",
					c.epochs, c.work, c.set, err, c.wantErr)
			}
		})
	}
}
