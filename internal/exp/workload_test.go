package exp

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
)

// TestWorkloadTenantsDeterministic pins the generator's determinism
// contract: same (Workload, Seed) → same tenants, different seeds → a
// different mix.
func TestWorkloadTenantsDeterministic(t *testing.T) {
	wk := Workload{Jobs: 8, Seed: 7, MinNP: 256, MaxNP: 2048, Gap: 1.5}
	a, err := wk.Tenants()
	if err != nil {
		t.Fatal(err)
	}
	b, err := wk.Tenants()
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("same spec generated different tenants:\n%v\nvs\n%v", a, b)
	}
	wk.Seed = 8
	c, err := wk.Tenants()
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(a) == fmt.Sprint(c) {
		t.Fatal("different seeds generated identical tenants")
	}
}

// TestWorkloadTenantsShape checks the generated jobs' invariants: sizes are
// powers of two inside the range, arrivals are nondecreasing from zero, and
// names are unique.
func TestWorkloadTenantsShape(t *testing.T) {
	wk := Workload{Jobs: 16, Seed: 3, MinNP: 300, MaxNP: 2000, Gap: 2}
	ts, err := wk.Tenants()
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 16 {
		t.Fatalf("generated %d tenants, want 16", len(ts))
	}
	if ts[0].Arrival != 0 {
		t.Errorf("first arrival %v, want 0", ts[0].Arrival)
	}
	seen := map[string]bool{}
	last := 0.0
	for _, tn := range ts {
		// MinNP 300 rounds up to 512; MaxNP 2000 rounds down to 1024.
		if tn.NP != 512 && tn.NP != 1024 {
			t.Errorf("tenant %s: np %d outside the power-of-two range [512,1024]", tn.Name, tn.NP)
		}
		if tn.Arrival < last {
			t.Errorf("tenant %s: arrival %v before predecessor %v", tn.Name, tn.Arrival, last)
		}
		last = tn.Arrival
		if seen[tn.Name] {
			t.Errorf("duplicate tenant name %s", tn.Name)
		}
		seen[tn.Name] = true
		if tn.Strategy == nil {
			t.Errorf("tenant %s: nil strategy from the default mix", tn.Name)
		}
	}
}

// TestWorkloadTenantsErrors pins the generator's validation.
func TestWorkloadTenantsErrors(t *testing.T) {
	for _, tc := range []struct {
		wk   Workload
		want string
	}{
		{Workload{Jobs: 0, MinNP: 256, MaxNP: 512}, "jobs > 0"},
		{Workload{Jobs: 2, MinNP: 0, MaxNP: 512}, "np range"},
		{Workload{Jobs: 2, MinNP: 512, MaxNP: 256}, "np range"},
		{Workload{Jobs: 2, MinNP: 513, MaxNP: 1023}, "no power of two"},
		{Workload{Jobs: 2, MinNP: 256, MaxNP: 512, Gap: -1}, "negative"},
	} {
		_, err := tc.wk.Tenants()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: error %v, want %q", tc.wk, err, tc.want)
		}
	}
}

// TestParseWorkload pins the -workload flag syntax round trip.
func TestParseWorkload(t *testing.T) {
	wk, err := ParseWorkload("jobs=6, np=256:1024, gap=1.5, steps=2, seed=9, strategy=all")
	if err != nil {
		t.Fatal(err)
	}
	if wk.Jobs != 6 || wk.MinNP != 256 || wk.MaxNP != 1024 || wk.Gap != 1.5 ||
		wk.Steps != 2 || wk.Seed != 9 || len(wk.Mix) != 3 {
		t.Fatalf("parsed %+v", wk)
	}
	// A bare np sets both ends of the range.
	wk, err = ParseWorkload("np=512")
	if err != nil {
		t.Fatal(err)
	}
	if wk.MinNP != 512 || wk.MaxNP != 512 {
		t.Fatalf("bare np parsed to %d:%d", wk.MinNP, wk.MaxNP)
	}
	// The empty spec is the documented default.
	wk, err = ParseWorkload("")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", wk) != fmt.Sprintf("%+v", DefaultWorkload()) {
		t.Fatalf("empty spec parsed to %+v, want the default", wk)
	}
}

// TestParseWorkloadErrors pins the CLI's exit-2 surface: unknown keys, bad
// values, bad strategies, and specs whose generated workload is invalid.
func TestParseWorkloadErrors(t *testing.T) {
	for _, tc := range []struct {
		spec string
		want string
	}{
		{"bogus=1", "unknown workload key"},
		{"jobs", "not key=value"},
		{"jobs=x", `jobs="x"`},
		{"gap=fast", `gap="fast"`},
		{"seed=-1", `seed="-1"`},
		{"strategy=mpiio", `unknown strategy "mpiio"`},
		{"jobs=0", "jobs > 0"},
		{"np=513:1023", "no power of two"},
		{"jobs=3000000000000", "jobs > 0 and <= 65536"},
		{"np=1:9223372036854775807", "np range"},
		{"gap=NaN", "not finite"},
		{"gap=-Inf", "negative"},
	} {
		_, err := ParseWorkload(tc.spec)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ParseWorkload(%q): error %v, want %q", tc.spec, err, tc.want)
		}
	}
}

// FuzzParseWorkload checks that any -workload spec either fails with a
// *WorkloadError or parses to a generator whose documented invariants
// hold: jobs > 0, 0 < MinNP <= MaxNP, and a finite gap >= 0.
func FuzzParseWorkload(f *testing.F) {
	for _, seed := range []string{
		"", "jobs=6,np=256:1024,gap=1.5,seed=3", "np=512", "strategy=all",
		"jobs=3000000000000", "np=1:9223372036854775807", "gap=NaN", "gap=Inf",
		"np=513:1023", "jobs", "bogus=1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		wk, err := ParseWorkload(spec)
		if err != nil {
			var we *WorkloadError
			if !errors.As(err, &we) {
				t.Fatalf("ParseWorkload(%q): error %#v is not a *WorkloadError", spec, err)
			}
			return
		}
		if wk.Jobs <= 0 || wk.MinNP <= 0 || wk.MaxNP < wk.MinNP ||
			!(wk.Gap >= 0) || math.IsInf(wk.Gap, 1) {
			t.Fatalf("ParseWorkload(%q) accepted %+v", spec, wk)
		}
	})
}
