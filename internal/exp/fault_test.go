package exp

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/fault"
	"repro/internal/table"
)

// faultedRun executes one checkpoint job at np with the given explicit fault
// schedule and returns the run.
func faultedRun(t *testing.T, np int, strat ckpt.Strategy, sched fault.Schedule) *Run {
	t.Helper()
	r, err := runCheckpoint(Options{Seed: 1}, Job{NP: np, Strategy: strat, Faults: &FaultSpec{
		Seed: 7, Schedule: sched,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if r.Fault == nil {
		t.Fatal("faulted job returned no FaultOutcome")
	}
	return r
}

// TestRbIOWriterDeathReelection is the targeted re-election scenario: the
// node hosting group 0's designated writer (rank 0, node 0) dies before the
// checkpoint. The group's four co-located ranks skip, the survivors elect
// the next rank up (rank 4), and the group file is written with exactly the
// dead ranks' chunks missing — no deadlock, no error.
func TestRbIOWriterDeathReelection(t *testing.T) {
	np := 256
	r := faultedRun(t, np, DefaultRbIOWithGroup(64), fault.Schedule{
		{Time: 1e-9, Class: fault.Node, Index: 0, Kind: fault.Fail},
	})
	fo := r.Fault
	// Node 0 hosts ranks 0..3, all in group 0 (64 ranks per group).
	if fo.DeadRanks != 4 || r.Agg.SkippedRanks != 4 {
		t.Errorf("dead/skipped ranks = %d/%d, want 4/4", fo.DeadRanks, r.Agg.SkippedRanks)
	}
	if fo.MissingChunks != 4 {
		t.Errorf("missing chunks = %d, want 4 (ranks 0-3 of group 0)", fo.MissingChunks)
	}
	if !fo.Lost {
		t.Error("a checkpoint with missing chunks must count as lost")
	}
	if fo.CommitErrors != 0 {
		t.Errorf("storage should have survived: commitErrors=%d", fo.CommitErrors)
	}
	// The re-elected writer (rank 4) did writer work: the run still wrote
	// the surviving 252 ranks' data.
	want := r.S * int64(np-4) / int64(np)
	if r.Agg.Bytes < want {
		t.Errorf("wrote %d bytes, want at least the %d survivors' share", r.Agg.Bytes, want)
	}
	if role := r.PerRank[4].Role; role != ckpt.RoleWriter {
		t.Errorf("rank 4 role = %v, want re-elected writer", role)
	}
}

// TestRbIOWriterTimesOutOnRevivedNode reaches the fault-aware writer's
// receive timeout. Group 0's writer (node 0) dies for good, and node 2
// (ranks 8-11) is down when the ranks enter the step, at about 0.25 s, so
// its ranks skip. Node 2 is back at 0.75 s, before the re-elected writer
// (rank 4) has waited out its detection window, so the writer believes
// ranks 8-11 alive, waits one timeout on each, and records their chunks as
// missing.
func TestRbIOWriterTimesOutOnRevivedNode(t *testing.T) {
	r := faultedRun(t, 256, DefaultRbIOWithGroup(64), fault.Schedule{
		{Time: 1e-9, Class: fault.Node, Index: 0, Kind: fault.Fail},
		{Time: 1e-9, Class: fault.Node, Index: 2, Kind: fault.Fail},
		{Time: 0.75, Class: fault.Node, Index: 2, Kind: fault.Restore},
	})
	fo := r.Fault
	if fo.DeadRanks != 8 {
		t.Errorf("dead ranks = %d, want 8 (nodes 0 and 2)", fo.DeadRanks)
	}
	if fo.MissingChunks != 8 || !fo.Lost {
		t.Errorf("missing chunks = %d, lost %v; want 8, lost", fo.MissingChunks, fo.Lost)
	}
	// The four known-dead ranks cost nothing; each of node 2's four costs
	// one peer timeout after the detection window.
	if min := 0.25 + 5*1.0; r.Agg.MaxEnd < min {
		t.Errorf("step ended at %.3fs, before the writer's four timeouts could (%.3fs)", r.Agg.MaxEnd, min)
	}
}

// TestMidWriteNodeDeathLosesCheckpoint pins the vulnerability-window model
// for a non-grouped strategy: a node death while 1PFPP ranks are writing
// makes those ranks' checkpoints non-durable (DeadRanks > 0, Lost), while
// the same death after the write window leaves the checkpoint intact.
func TestMidWriteNodeDeathLosesCheckpoint(t *testing.T) {
	np := 256
	// Fault-free reference run to locate the write window.
	clean, err := runCheckpoint(Options{Seed: 1}, Job{NP: np, Strategy: ckpt.OnePFPP{}})
	if err != nil {
		t.Fatal(err)
	}
	mid := (clean.Agg.Start + clean.Agg.MaxEnd) / 2
	after := clean.Agg.MaxEnd + clean.Result.Wall // comfortably past everything

	r := faultedRun(t, np, ckpt.OnePFPP{}, fault.Schedule{
		{Time: mid, Class: fault.Node, Index: 2, Kind: fault.Fail},
	})
	if r.Fault.DeadRanks == 0 {
		t.Errorf("node death at %.3fs inside write window [%.3f, %.3f] lost no ranks",
			mid, clean.Agg.Start, clean.Agg.MaxEnd)
	}
	if !r.Fault.Lost {
		t.Error("mid-write node death must lose the checkpoint")
	}

	r2 := faultedRun(t, np, ckpt.OnePFPP{}, fault.Schedule{
		{Time: after, Class: fault.Node, Index: 2, Kind: fault.Fail},
	})
	if r2.Fault.Lost {
		t.Errorf("node death at %.1fs, after the write window, should not lose the checkpoint", after)
	}
}

// TestServerDeathFailsOver pins the storage stack's survival path: one file
// server dying mid-checkpoint redirects its commits to surviving servers
// (failovers > 0) without a single commit error, and the checkpoint is not
// lost.
func TestServerDeathFailsOver(t *testing.T) {
	np := 256
	clean, err := runCheckpoint(Options{Seed: 1}, Job{NP: np, Strategy: ckpt.OnePFPP{}})
	if err != nil {
		t.Fatal(err)
	}
	mid := (clean.Agg.Start + clean.Agg.MaxEnd) / 2
	r := faultedRun(t, np, ckpt.OnePFPP{}, fault.Schedule{
		{Time: mid, Class: fault.Server, Index: 0, Kind: fault.Fail},
	})
	fo := r.Fault
	if fo.Failovers == 0 {
		t.Error("server death mid-checkpoint should have redirected commits (failovers = 0)")
	}
	if fo.CommitErrors != 0 {
		t.Errorf("failover should have absorbed the outage, got %d commit errors", fo.CommitErrors)
	}
	if fo.Lost {
		t.Error("checkpoint should survive a single server death")
	}
	// The outage costs time: the faulted step is at least as slow as clean.
	if r.Agg.StepTime() < clean.Agg.StepTime() {
		t.Errorf("faulted step (%.3fs) faster than clean step (%.3fs)", r.Agg.StepTime(), clean.Agg.StepTime())
	}
}

// faultSweepAt renders the survivability table at a reduced scale with the
// given worker-pool size.
func faultSweepAt(t *testing.T, parallel int) string {
	t.Helper()
	rows, err := FaultSweepN(Options{Seed: 3, Parallel: parallel}, 256, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	return table.Of(rows)
}

// TestFaultSweepDeterministicAcrossWorkers extends the reproducibility
// regression to fault injection: the sampled schedules, the retry jitter and
// the restart attempts must make the printed table byte-identical at any
// worker-pool size and GOMAXPROCS.
func TestFaultSweepDeterministicAcrossWorkers(t *testing.T) {
	ref := faultSweepAt(t, 1)
	if got := faultSweepAt(t, 1); got != ref {
		t.Errorf("serial rerun differs:\n%s\nvs\n%s", got, ref)
	}
	if got := faultSweepAt(t, 4); got != ref {
		t.Errorf("4-worker pool differs:\n%s\nvs\n%s", got, ref)
	}
	if got := faultSweepAt(t, runtime.NumCPU()); got != ref {
		t.Errorf("NumCPU pool differs:\n%s\nvs\n%s", got, ref)
	}
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	if got := faultSweepAt(t, 4); got != ref {
		t.Errorf("GOMAXPROCS=1 with 4 workers differs:\n%s\nvs\n%s", got, ref)
	}
}

// TestFaultFreeSpecMatchesNoSpec guards the zero-fault identity: a job armed
// with an empty explicit schedule must measure exactly what an unfaulted job
// measures — the injector, the retry plumbing and the fault-aware strategy
// paths must all be free when nothing fails.
func TestFaultFreeSpecMatchesNoSpec(t *testing.T) {
	for _, strat := range faultStrategies(256) {
		clean, err := runCheckpoint(Options{Seed: 1}, Job{NP: 256, Strategy: strat})
		if err != nil {
			t.Fatal(err)
		}
		faulted := faultedRun(t, 256, strat, fault.Schedule{})
		if faulted.Fault.Lost {
			t.Errorf("%s: empty schedule lost a checkpoint", strat.Name())
		}
		if clean.Agg.StepTime() != faulted.Agg.StepTime() {
			t.Errorf("%s: step time %.9f with empty schedule, %.9f without — zero faults must be free",
				strat.Name(), faulted.Agg.StepTime(), clean.Agg.StepTime())
		}
		if clean.Agg.Bytes != faulted.Agg.Bytes {
			t.Errorf("%s: bytes %d with empty schedule, %d without", strat.Name(), faulted.Agg.Bytes, clean.Agg.Bytes)
		}
	}
}

// TestYoungInterval checks Young's interval against its closed form,
// sqrt(2*C*M), and checks that it minimizes the first-order waste
// C/tau + tau/(2*M).
func TestYoungInterval(t *testing.T) {
	if got := youngInterval(50, 3600); got != 600 {
		t.Errorf("youngInterval(C=50, M=3600) = %v, want 600", got)
	}
	const C, M = 30.0, 5000.0
	waste := func(tau float64) float64 { return C/tau + tau/(2*M) }
	tau := youngInterval(C, M)
	for _, f := range []float64{0.9, 0.99, 1.01, 1.1} {
		if waste(tau*f) <= waste(tau) {
			t.Errorf("waste at %v*tau = %v, not above the optimum's %v", f, waste(tau*f), waste(tau))
		}
	}
}

// TestDalyMakespan checks the Daly model against a hand-computed point and
// against its large-MTBF limit, where failures vanish and the makespan is
// the work plus one checkpoint per interval: work*(tau+C)/tau.
func TestDalyMakespan(t *testing.T) {
	// M=100, C=10, R=5, tau=40, work=400: ten segments of
	// 100*e^0.05*(e^0.5-1) = 100*1.051271*0.648721 = 68.1982 each.
	if got := dalyMakespan(100, 10, 5, 40, 400); math.Abs(got-681.982) > 1e-3 {
		t.Errorf("dalyMakespan(M=100, C=10, R=5, tau=40, work=400) = %.6f, want 681.982", got)
	}
	const C, R, tau, work = 30.0, 60.0, 300.0, 86400.0
	limit := work * (tau + C) / tau
	prev := math.Inf(1)
	for _, M := range []float64{1e6, 1e7, 1e8, 1e9} {
		err := math.Abs(dalyMakespan(M, C, R, tau, work)-limit) / limit
		if err >= prev {
			t.Errorf("M=%g: relative error %.3g did not shrink from %.3g", M, err, prev)
		}
		prev = err
	}
	if prev > 1e-6 {
		t.Errorf("M=1e9: relative error %.3g from the limit %g, want < 1e-6", prev, limit)
	}
}
