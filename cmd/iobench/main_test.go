package main

import (
	"errors"
	"flag"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/bbuf"
	"repro/internal/exp"
	"repro/internal/registry"
)

// TestValidateCkptFlag pins the -ckpt exit-2 surface: empty (all headline
// arms) and registry names pass; unknown names fail with the registry's
// typed error.
func TestValidateCkptFlag(t *testing.T) {
	for _, name := range []string{"", "rbio", "coio1", "async", "multilevel"} {
		if err := validateCkptFlag(name); err != nil {
			t.Errorf("validateCkptFlag(%q) = %v", name, err)
		}
	}
	for _, name := range []string{"mpiio", "ml"} {
		err := validateCkptFlag(name)
		var ue *registry.UnknownError
		if !errors.As(err, &ue) || ue.Kind != "ckpt strategy" {
			t.Fatalf("-ckpt %s returned %#v, want a ckpt strategy *registry.UnknownError", name, err)
		}
	}
}

// resolveArgs parses args as iobench's command line and resolves it.
func resolveArgs(t *testing.T, args ...string) ([]exp.Descriptor, error) {
	t.Helper()
	fs := flag.NewFlagSet("iobench", flag.ContinueOnError)
	c := newCLI(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return c.resolve()
}

// TestResolveRejectsBadFlags pins the exit-2 surface: every bad name is the
// registry's typed error of the flag's kind, every bad number an
// *exp.FlagError naming the flag, and all of it is caught before anything
// runs.
func TestResolveRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		kind string // registry kind of the *registry.UnknownError
		flag string // or the flag a *flagError names
	}{
		{[]string{"-exp", "nope"}, "exp experiment", ""},
		{[]string{"-ckpt", "nope"}, "ckpt strategy", ""},
		{[]string{"-ckpt", "ml"}, "ckpt strategy", ""},
		{[]string{"-fs", "nope"}, "fsys backend", ""},
		{[]string{"-machine", "nope"}, "machine machine", ""},
		{[]string{"-machine", "bluegenel"}, "machine machine", ""},
		{[]string{"-map", "nope"}, "machine placement", ""},
		{[]string{"-map", "nope", "-np", "1024"}, "machine placement", ""},
		{[]string{"-drain", "nope"}, "bbuf drain scheduler", ""},
		{[]string{"-np", "-4"}, "", "np"},
		{[]string{"-np", "1000"}, "", "np"},
		{[]string{"-np", "12", "-machine", "bgl"}, "", "np"},
		{[]string{"-shards", "-1"}, "", "shards"},
		{[]string{"-tenants", "-2"}, "", "tenants"},
		{[]string{"-tenants", "0"}, "", "tenants"},
		{[]string{"-epochs", "0"}, "", "epochs"},
		{[]string{"-work", "-5"}, "", "work"},
		{[]string{"-mtbf", "-1"}, "", "mtbf"},
		{[]string{"-mtbf", "0"}, "", "mtbf"},
		{[]string{"-mtbf", "NaN"}, "", "mtbf"},
		{[]string{"-mtbf", "+Inf"}, "", "mtbf"},
		{[]string{"-trace-events", "-5"}, "", "trace-events"},
		{[]string{"-parallel", "-3"}, "", "parallel"},
	} {
		_, err := resolveArgs(t, tc.args...)
		var ue *registry.UnknownError
		var fe *exp.FlagError
		switch {
		case tc.kind != "" && (!errors.As(err, &ue) || ue.Kind != tc.kind):
			t.Errorf("%v: error %#v, want a %s *registry.UnknownError", tc.args, err, tc.kind)
		case tc.flag != "" && (!errors.As(err, &fe) || fe.Flag != tc.flag):
			t.Errorf("%v: error %#v, want an *exp.FlagError for -%s", tc.args, err, tc.flag)
		}
	}
	// Malformed specs fail with their parser's typed error.
	for _, tc := range []struct {
		args []string
		want any // pointer to the error type errors.As must find
	}{
		{[]string{"-workload", "jobs=3000000000000"}, new(*exp.WorkloadError)},
		{[]string{"-workload", "np=1:9223372036854775807"}, new(*exp.WorkloadError)},
		{[]string{"-workload", "gap=NaN"}, new(*exp.WorkloadError)},
		{[]string{"-bb", "3y"}, new(*bbuf.SpecError)},
		{[]string{"-bb", "8xNaN"}, new(*bbuf.SpecError)},
		{[]string{"-bb", "8xInf"}, new(*bbuf.SpecError)},
		// The default workload's jobs reach np=1024: a pinned 64-rank
		// machine can never admit them.
		{[]string{"-exp", "workload", "-np", "64"}, new(*exp.CapacityError)},
	} {
		if _, err := resolveArgs(t, tc.args...); !errors.As(err, tc.want) {
			t.Errorf("%v: error %#v, want %T", tc.args, err, tc.want)
		}
	}

	const prefix = `exp: unknown experiment "nope" (valid: all, list, ablations, `
	if _, err := resolveArgs(t, "-exp", "nope"); !strings.HasPrefix(err.Error(), prefix) {
		t.Errorf("unknown -exp message %q, want prefix %q", err, prefix)
	}
}

// TestResolveSelectsExperiments pins -exp selection: one name runs one
// experiment, "all" runs the registry in registration order.
func TestResolveSelectsExperiments(t *testing.T) {
	run, err := resolveArgs(t, "-exp", "fig8", "-np", "1024", "-machine", "bgl", "-map", "xyzt")
	if err != nil || len(run) != 1 || run[0].Name != "fig8" {
		t.Fatalf("-exp fig8 resolved to %d experiments, %v", len(run), err)
	}
	run, err = resolveArgs(t)
	if err != nil {
		t.Fatal(err)
	}
	all := exp.Experiments()
	if len(run) != len(all) || run[0].Name != all[0].Name || run[len(run)-1].Name != all[len(all)-1].Name {
		t.Fatalf("-exp all resolved to %d experiments, want the %d registered in order", len(run), len(all))
	}
}

// TestValidateLifecycleFlags pins -epochs/-work: their defaults and any
// positive values pass, a value below 1 is rejected like any other bad
// number.
func TestValidateLifecycleFlags(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr bool
	}{
		{"defaults pass", nil, false},
		{"positive values pass", []string{"-epochs", "12", "-work", "120"}, false},
		{"explicit zero epochs rejected", []string{"-epochs", "0"}, true},
		{"explicit negative epochs rejected", []string{"-epochs", "-3"}, true},
		{"explicit zero work rejected", []string{"-work", "0"}, true},
		{"explicit negative work rejected", []string{"-work", "-1"}, true},
		{"one bad one good still rejected", []string{"-epochs", "12", "-work", "-1"}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := resolveArgs(t, c.args...); (err != nil) != c.wantErr {
				t.Fatalf("%v: %v, wantErr %v", c.args, err, c.wantErr)
			}
		})
	}
}

// TestHostCostLine pins the per-experiment cost line: it carries "wall",
// which every output diff greps away, on Linux the peak RSS, and the stack
// memory and starting stack size.
func TestHostCostLine(t *testing.T) {
	got := hostCost(3940 * time.Millisecond)
	want := `^3\.94s wall, (\d+ MB peak RSS, )?\d+ MB stacks, (2|4|8|16|32) KB start stack$`
	if runtime.GOOS == "linux" {
		want = `^3\.94s wall, \d+ MB peak RSS, \d+ MB stacks, (2|4|8|16|32) KB start stack$`
	}
	if !regexp.MustCompile(want).MatchString(got) {
		t.Errorf("cost line %q, want it to match %s", got, want)
	}
}
