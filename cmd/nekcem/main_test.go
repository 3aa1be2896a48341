package main

import (
	"errors"
	"flag"
	"testing"

	"repro/internal/bbuf"
	"repro/internal/ckpt"
	"repro/internal/exp"
	"repro/internal/registry"
)

// TestResolveStrategy pins the -ckpt/-nf resolution the command exits 2
// on: registry names build, -nf refines the file-count knob,
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
	// -nf is ignored by strategies without a file-count knob.
	if _, err := resolveStrategy("1pfpp", 4096, 3); err != nil {
		t.Fatalf("-ckpt 1pfpp -nf 3: %v", err)
	}
	// The exit-2 path: a typed unknown-strategy error.
	_, err = resolveStrategy("mpiio", 4096, 0)
	var ue *registry.UnknownError
	if !errors.As(err, &ue) || ue.Kind != "ckpt strategy" {
		t.Fatalf("unknown -ckpt returned %#v, want a ckpt strategy *registry.UnknownError", err)
	}
}

// TestResolveRejectsBadFlags pins the exit-2 surface: every bad name is the
// registry's typed error of the flag's kind and every bad number an
// *exp.FlagError naming the flag, all caught before anything is built.
func TestResolveRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		kind string // registry kind of the *registry.UnknownError
		flag string // or the flag a *flagError names
	}{
		{[]string{"-ckpt", "nope"}, "ckpt strategy", ""},
		{[]string{"-ckpt", "ml"}, "ckpt strategy", ""},
		{[]string{"-fs", "nope"}, "fsys backend", ""},
		{[]string{"-machine", "nope"}, "machine machine", ""},
		{[]string{"-machine", "bluegenel"}, "machine machine", ""},
		{[]string{"-map", "nope"}, "machine placement", ""},
		{[]string{"-drain", "nope"}, "bbuf drain scheduler", ""},
		{[]string{"-np", "-4"}, "", "np"},
		{[]string{"-np", "1000"}, "", "np"},
		{[]string{"-nf", "-3"}, "", "nf"},
		{[]string{"-steps", "-1"}, "", "steps"},
		{[]string{"-ckpt-every", "-2"}, "", "ckpt-every"},
		{[]string{"-shards", "-1"}, "", "shards"},
		{[]string{"-ckpt", "rbio", "-nf", "3", "-np", "64"}, "", "nf"},
		{[]string{"-ckpt", "coio", "-nf", "3", "-np", "64"}, "", "nf"},
		{[]string{"-elements", "-5"}, "", "elements"},
		{[]string{"-order", "-2"}, "", "order"},
	} {
		fs := flag.NewFlagSet("nekcem", flag.ContinueOnError)
		c := newCLI(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		_, _, err := c.resolve()
		var ue *registry.UnknownError
		var fe *exp.FlagError
		switch {
		case tc.kind != "" && (!errors.As(err, &ue) || ue.Kind != tc.kind):
			t.Errorf("%v: error %#v, want a %s *registry.UnknownError", tc.args, err, tc.kind)
		case tc.flag != "" && (!errors.As(err, &fe) || fe.Flag != tc.flag):
			t.Errorf("%v: error %#v, want an *exp.FlagError for -%s", tc.args, err, tc.flag)
		}
	}
	// -work and -epochs are iobench's recovery budget, not nekcem flags.
	fs := flag.NewFlagSet("nekcem", flag.ContinueOnError)
	newCLI(fs)
	for _, name := range []string{"work", "epochs"} {
		if fs.Lookup(name) != nil {
			t.Errorf("nekcem declares -%s", name)
		}
	}
	// Malformed fleet specs fail with the parser's typed error.
	for _, tc := range []struct {
		args []string
		want any // pointer to the error type errors.As must find
	}{
		{[]string{"-bb", "3y"}, new(*bbuf.SpecError)},
		{[]string{"-bb", "8xNaN"}, new(*bbuf.SpecError)},
		{[]string{"-bb", "8xInf"}, new(*bbuf.SpecError)},
	} {
		fs := flag.NewFlagSet("nekcem", flag.ContinueOnError)
		c := newCLI(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.resolve(); !errors.As(err, tc.want) {
			t.Errorf("%v: error %#v, want %T", tc.args, err, tc.want)
		}
	}
}
