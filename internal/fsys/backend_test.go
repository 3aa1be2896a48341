package fsys_test

import (
	"errors"
	"testing"

	"repro/internal/fsys"
	"repro/internal/machine"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/xrand"

	_ "repro/internal/bbuf"
)

func TestRegisteredBackends(t *testing.T) {
	for _, want := range []string{"gpfs", "pvfs", "bbuf"} {
		if b, err := fsys.Lookup(want); err != nil || string(b) != want {
			t.Fatalf("Lookup(%q) = %q, %v", want, b, err)
		}
	}
}

func TestLookupDefaultsAndErrors(t *testing.T) {
	b, err := fsys.Lookup("")
	if err != nil || b != fsys.DefaultBackend {
		t.Fatalf("Lookup(\"\") = %q, %v; want %q", b, err, fsys.DefaultBackend)
	}
	if _, err := fsys.Lookup("pvfs"); err != nil {
		t.Fatalf("Lookup(pvfs): %v", err)
	}
	_, err = fsys.Lookup("ext4")
	if err == nil {
		t.Fatal("Lookup(ext4) succeeded")
	}
	var ue *registry.UnknownError
	if !errors.As(err, &ue) || ue.Kind != "fsys backend" {
		t.Fatalf("error is %#v, want an fsys backend *registry.UnknownError", err)
	}
	if ue.Name != "ext4" || len(ue.Known) < 3 {
		t.Fatalf("bad error detail: %+v", ue)
	}
}

func TestMountRoundTrip(t *testing.T) {
	for _, name := range []fsys.Backend{"gpfs", "pvfs", "bbuf"} {
		k := sim.NewKernel()
		m := machine.MustNew(k, xrand.New(1), machine.Intrepid(256))
		fs, err := fsys.Mount(name, m, fsys.MountOptions{Quiet: true})
		if err != nil {
			t.Fatalf("Mount(%q): %v", name, err)
		}
		if fs.Name() != string(name) {
			t.Fatalf("Mount(%q) mounted %q", name, fs.Name())
		}
		if fs.Machine() != m {
			t.Fatalf("Mount(%q) bound to wrong machine", name)
		}
	}
}

func TestDuplicateRegisterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	fsys.Register("gpfs", func(m *machine.Machine, opt fsys.MountOptions) (fsys.System, error) {
		return nil, nil
	})
}
