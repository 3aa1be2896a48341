package exp

import (
	"strings"
	"testing"
)

// TestRecoveryStudySmoke runs a small closed-loop lifecycle study and checks
// the shape of the result: one fault-free row plus one row per MTBF rung for
// each of the four strategy families, with measured makespans and Daly
// predictions populated.
func TestRecoveryStudySmoke(t *testing.T) {
	rows, err := RecoveryStudy(Options{Seed: 1, Parallel: 4}, 256, 6, 24, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := 4 * (1 + len(recoveryMultipliers))
	if len(rows) != want {
		t.Fatalf("got %d rows, want %d", len(rows), want)
	}
	families := map[string]int{}
	for _, r := range rows {
		families[r.Strategy]++
		if r.Makespan <= 0 {
			t.Errorf("%s mtbf=%g: measured makespan %g", r.Strategy, r.MTBFHours, r.Makespan)
		}
		if r.Daly <= 0 {
			t.Errorf("%s mtbf=%g: Daly prediction %g", r.Strategy, r.MTBFHours, r.Daly)
		}
		if r.MTBFHours == 0 {
			// Fault-free arm: the lifecycle must be clean.
			if r.Rollbacks != 0 || r.Torn != 0 {
				t.Errorf("%s fault-free arm rolled back: %+v", r.Strategy, r)
			}
			if r.C <= 0 {
				t.Errorf("%s fault-free arm measured no checkpoint cost", r.Strategy)
			}
		} else if r.SysMTBF <= 0 {
			t.Errorf("%s mtbf=%g: no system MTBF", r.Strategy, r.MTBFHours)
		}
	}
	if len(families) != 4 {
		t.Fatalf("families covered: %v, want 4", families)
	}
	for name, n := range families {
		if n != 1+len(recoveryMultipliers) {
			t.Errorf("family %s has %d rows, want %d", name, n, 1+len(recoveryMultipliers))
		}
	}
	tbl := RecoveryTable(rows)
	for _, col := range []string{"strategy", "sys mtbf (s)", "measured (s)", "daly (s)", "ratio", "kills t/s/i"} {
		if !strings.Contains(tbl, col) {
			t.Errorf("table missing column %q:\n%s", col, tbl)
		}
	}
}

// TestRecoveryStudyParallelDeterministic: the recovery table is identical at
// any worker-pool size (the acceptance contract for -exp recovery under
// -parallel).
func TestRecoveryStudyParallelDeterministic(t *testing.T) {
	run := func(par int) string {
		rows, err := RecoveryStudy(Options{Seed: 2, Parallel: par}, 256, 6, 24, 4)
		if err != nil {
			t.Fatal(err)
		}
		return RecoveryTable(rows)
	}
	serial := run(1)
	if par4 := run(4); par4 != serial {
		t.Fatalf("recovery study depends on the worker count:\nserial:\n%s\npar4:\n%s", serial, par4)
	}
}
