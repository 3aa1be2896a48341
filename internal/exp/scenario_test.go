package exp

import (
	"testing"
)

// TestScenarioSerialRule pins the one rule for which runs stay on the
// serial kernel: every reason string, in precedence order, plus the
// no-reason serial case when sharding was not asked for.
func TestScenarioSerialRule(t *testing.T) {
	cases := []struct {
		name   string
		sc     scenario
		shards int
		psets  int
		serial bool
		reason string
	}{
		{"shards 0", scenario{}, 0, 16, true, ""},
		{"shards 1", scenario{Faults: &FaultSpec{}}, 1, 16, true, ""},
		{"clean multi-pset run shards", scenario{}, 4, 16, false, ""},
		{"armed faults", scenario{Faults: &FaultSpec{MTBF: 1}}, 4, 16, true, "fault injection"},
		{"faults armed mid-run", scenario{Faulted: true}, 4, 16, true, "fault injection"},
		{"per-op log", scenario{Log: true}, 4, 16, true, "per-op log"},
		{"queued admission", scenario{Queued: true}, 4, 16, true, "queued admission"},
		{"recovery lifecycle", scenario{Lifecycle: true}, 4, 16, true, "recovery lifecycle"},
		{"one pset", scenario{}, 4, 1, true, "one pset"},
		{"faults outrank the log", scenario{Faulted: true, Log: true}, 4, 16, true, "fault injection"},
	}
	for _, c := range cases {
		serial, reason := c.sc.serial(c.shards, c.psets)
		if serial != c.serial || reason != c.reason {
			t.Errorf("%s: serial(%d, %d) = (%v, %q), want (%v, %q)",
				c.name, c.shards, c.psets, serial, reason, c.serial, c.reason)
		}
	}
}

// TestMultiLevelShardedEquivalence extends the sharded-equivalence golden
// to the multi-level strategy, whose RAM-disk plan state every partition
// touches: the Figure 5 row and the multilevel study must be byte-identical
// between the serial kernel and the partitioned one at 4 and 8 shards.
func TestMultiLevelShardedEquivalence(t *testing.T) {
	render := func(shards int) string {
		o := Options{Seed: 3, NPs: []int{2048}, Ckpt: "multilevel", Shards: shards, Parallel: 1}
		rows, err := Headline(o)
		if err != nil {
			t.Fatal(err)
		}
		ml, err := MultiLevelStudy(o, 2048)
		if err != nil {
			t.Fatal(err)
		}
		return Fig5Table(rows) + MultiLevelTable(ml)
	}
	ref := render(1)
	for _, shards := range []int{4, 8} {
		if got := render(shards); got != ref {
			t.Errorf("shards=%d differs from serial:\n%s\nvs\n%s", shards, got, ref)
		}
	}
}

// TestRecoveryStudyTraced pins that the recovery study honours
// Options.Trace: one trace entry per lifecycle cell, and rows byte-identical
// to the untraced study.
func TestRecoveryStudyTraced(t *testing.T) {
	plain, err := RecoveryStudy(Options{Seed: 1, Parallel: 2}, 256, 6, 24, 4)
	if err != nil {
		t.Fatal(err)
	}
	tc := &TraceCollector{MaxEvents: 1}
	traced, err := RecoveryStudy(Options{Seed: 1, Parallel: 2, Trace: tc}, 256, 6, 24, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := RecoveryTable(traced), RecoveryTable(plain); got != want {
		t.Fatalf("tracing perturbed the recovery study:\n%s\nvs\n%s", got, want)
	}
	cells := len(recoveryFamilies(256)) * (1 + len(recoveryMultipliers))
	entries := tc.Entries()
	if len(entries) != cells {
		t.Fatalf("collected %d traces, want one per lifecycle cell (%d)", len(entries), cells)
	}
	labels := map[string]bool{}
	for _, e := range entries {
		if e.Makespan <= 0 {
			t.Errorf("%s: non-positive makespan %v", e.Label, e.Makespan)
		}
		labels[e.Label] = true
	}
	if len(labels) != cells {
		t.Errorf("trace labels are not unique per cell: %v", labels)
	}
}
