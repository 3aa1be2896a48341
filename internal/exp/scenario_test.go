package exp

import (
	"testing"

	"repro/internal/ckpt"
	"repro/internal/sim"
	"repro/internal/table"
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
		return Fig5Table(rows) + table.Of(ml)
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

// TestRbIOShardedStaysOnLanes is the partitioned kernel's hardware-
// independent regression gate: rbIO nf=ng at np=4096 builds its groups and
// writers' communicator by splitting the world, and with per-message
// routing those world-wide collectives ride the pset lanes, so under 10% of
// all dispatches may land on the exclusive lane. The counts must not depend
// on the lane worker count, and a traced run reports the same counts as
// trace counters.
func TestRbIOShardedStaysOnLanes(t *testing.T) {
	const np = 4096
	run := func(o Options) sim.ShardStats {
		t.Helper()
		e, err := build(o, scenario{NP: np})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.solve(paperRun(np, ckpt.MustNew("rbio", np), 1, 1)); err != nil {
			t.Fatal(err)
		}
		e.finish("rbio")
		st, ok := e.K.ShardStats()
		if !ok {
			t.Fatal("run did not shard")
		}
		return st
	}
	st := run(Options{Seed: 1, Shards: 4, Parallel: 1})
	total := st.LaneEvents + st.ExclusiveEvents
	share := float64(st.ExclusiveEvents) / float64(total)
	t.Logf("np=%d shards=4: %+v, exclusive share %.1f%%", np, st, 100*share)
	if share >= 0.10 {
		t.Errorf("%.1f%% of %d dispatches ran on the exclusive lane, want < 10%%", 100*share, total)
	}
	if st.ParallelWindows == 0 || st.ParallelWindows > st.Windows {
		t.Errorf("parallel windows %d of %d", st.ParallelWindows, st.Windows)
	}

	tc := &TraceCollector{MaxEvents: 1}
	if got := run(Options{Seed: 1, Shards: 2, Parallel: 1, Trace: tc}); got != st {
		t.Errorf("shards=2 traced counts %+v differ from shards=4 %+v", got, st)
	}
	counters := map[string]int64{}
	for _, c := range tc.Entries()[0].Rec.Snapshot("", 0).Counters {
		counters[c.Name] = c.Value
	}
	for name, want := range map[string]uint64{
		"shard.lane_events":      st.LaneEvents,
		"shard.exclusive_events": st.ExclusiveEvents,
		"shard.windows":          st.Windows,
		"shard.parallel_windows": st.ParallelWindows,
		"shard.suspensions":      st.Suspensions,
	} {
		if counters[name] != int64(want) {
			t.Errorf("trace counter %s = %d, want %d", name, counters[name], want)
		}
	}
}
