package repro_test

import (
	"errors"
	"flag"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bbuf"
	"repro/internal/exp"
	"repro/internal/registry"
)

// TestCLIsAgreeOnSharedFlags runs every bad value of a flag iobench and
// nekcem share through exp's resolver and through both binaries. The
// resolver must reject it with the expected error type, and each binary
// must exit 2 before anything runs, printing exactly that error.
func TestCLIsAgreeOnSharedFlags(t *testing.T) {
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin, "./cmd/iobench", "./cmd/nekcem")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	clis := map[string][]string{
		"iobench": {"-exp", "fig5", "-np", "64"},
		"nekcem":  {"-np", "64"},
	}
	for _, tc := range []struct {
		args []string
		want any // pointer to the error type errors.As must find
	}{
		{[]string{"-fs", "nope"}, new(*registry.UnknownError)},
		{[]string{"-machine", "nope"}, new(*registry.UnknownError)},
		{[]string{"-machine", "bluegenel"}, new(*registry.UnknownError)},
		{[]string{"-map", "nope"}, new(*registry.UnknownError)},
		{[]string{"-drain", "nope"}, new(*registry.UnknownError)},
		{[]string{"-bb", "3y"}, new(*bbuf.SpecError)},
		{[]string{"-bb", "8xNaN"}, new(*bbuf.SpecError)},
		{[]string{"-shards", "-1"}, new(*exp.FlagError)},
		{[]string{"-machine", "bgl", "-map", "nope"}, new(*registry.UnknownError)},
	} {
		fs := flag.NewFlagSet("shared", flag.ContinueOnError)
		f := exp.DeclareFlags(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		_, want := f.Options(64)
		if !errors.As(want, tc.want) {
			t.Errorf("%v: resolver error %#v, want %T", tc.args, want, tc.want)
			continue
		}
		for name, base := range clis {
			out, err := exec.Command(filepath.Join(bin, name), append(base, tc.args...)...).CombinedOutput()
			var ee *exec.ExitError
			if !errors.As(err, &ee) || ee.ExitCode() != 2 {
				t.Errorf("%s %v: %v, want exit 2", name, tc.args, err)
			}
			if got := strings.TrimSpace(string(out)); got != want.Error() {
				t.Errorf("%s %v printed %q, want %q", name, tc.args, got, want)
			}
		}
	}
}
