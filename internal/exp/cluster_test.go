package exp

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/mpiio"
	"repro/internal/table"
)

// runCluster hosts the tenants together on one machine sized for all of
// them, admits every one up front and runs them to completion: the nt=1
// golden tests' route into the cluster composition.
func runCluster(o Options, tenants []Tenant) ([]*TenantJob, error) {
	capRanks, err := clusterCapacity(o, tenants)
	if err != nil {
		return nil, err
	}
	jobs, _, err := runStatic(o, capRanks, tenants, "cluster")
	return jobs, err
}

// clusterHeadline reproduces the headline grid through the multi-tenant
// session at nt=1: one tenant per approach, each filling a machine of
// exactly its own size, writing to the single-tenant "ckpt" directory.
func clusterHeadline(t *testing.T, o Options, np int) []HeadlineRow {
	t.Helper()
	var rows []HeadlineRow
	for ai, strat := range Approaches(np) {
		jobs, err := runCluster(o, []Tenant{
			{Name: "t0", NP: np, Strategy: strat, Dir: "ckpt"},
		})
		if err != nil {
			t.Fatal(err)
		}
		res := jobs[0].Res
		agg := res.Checkpoints[0]
		step := agg.StepTime()
		rows = append(rows, HeadlineRow{
			NP: np, Approach: ApproachLabels[ai], S: agg.Bytes,
			StepSec: step, GBps: GB(agg.Bandwidth()),
			Ratio: step / res.ComputeStep,
		})
	}
	return rows
}

// TestClusterSingleTenantGoldenIdentity pins the tentpole's backward-
// compatibility contract: a one-tenant cluster session is byte-identical to
// the pre-refactor single-tenant runner. It reproduces the fig5 and
// fscompare tables through the cluster layer and diffs them against the
// same goldens that pin runCheckpoint (machine_*.golden), at seeds 1/3 and
// np 2048/4096, with the sharded kernel exercised alongside the serial one.
func TestClusterSingleTenantGoldenIdentity(t *testing.T) {
	for _, np := range []int{2048, 4096} {
		for _, seed := range []uint64{1, 3} {
			if testing.Short() && np > 2048 {
				continue
			}
			name := fmt.Sprintf("np%d_seed%d", np, seed)
			for _, shards := range []int{1, 4} {
				np, seed, shards := np, seed, shards
				t.Run(fmt.Sprintf("fig5_%s_shards%d", name, shards), func(t *testing.T) {
					t.Parallel()
					rows := clusterHeadline(t, Options{Seed: seed, Shards: shards}, np)
					checkGolden(t, "machine_fig5_"+name+".golden", Fig5Table(rows))
				})
				t.Run(fmt.Sprintf("fscompare_%s_shards%d", name, shards), func(t *testing.T) {
					t.Parallel()
					strategies := []ckpt.Strategy{
						ckpt.DefaultRbIO(),
						ckpt.CoIO{NumFiles: np / 64, Hints: mpiio.DefaultHints()},
						ckpt.OnePFPP{},
					}
					var rows []FSRow
					for _, fsName := range FileSystems {
						for _, strat := range strategies {
							jobs, err := runCluster(Options{Seed: seed, FS: fsName, Shards: shards},
								[]Tenant{{Name: "t0", NP: np, Strategy: strat, Dir: "ckpt"}})
							if err != nil {
								t.Fatal(err)
							}
							agg := jobs[0].Res.Checkpoints[0]
							rows = append(rows, FSRow{
								FS: string(fsName), Strategy: strat.Name(), NP: np,
								GBps: GB(agg.Bandwidth()), StepSec: agg.StepTime(),
							})
						}
					}
					checkGolden(t, "machine_fscompare_"+name+".golden", table.Of(rows))
				})
			}
		}
	}
}

// TestClusterDeterminism pins the multi-tenant determinism contract: the
// colliding storm renders byte-identically on the serial kernel, the
// sharded kernel at different shard counts, and under GOMAXPROCS=1.
func TestClusterDeterminism(t *testing.T) {
	stormSharded := func(shards int) string {
		r, err := CkptStorm(Options{Seed: 5, Shards: shards}, 256, 2)
		if err != nil {
			t.Fatal(err)
		}
		return table.Of(r.Rows) + table.Of(r.Summaries)
	}
	storm := func() string { return stormSharded(0) }
	want := storm()
	if again := storm(); again != want {
		t.Errorf("serial rerun diverged:\n%s\nvs\n%s", again, want)
	}
	for _, shards := range []int{2, 4} {
		if got := stormSharded(shards); got != want {
			t.Errorf("shards=%d diverged from serial:\n%s\nvs\n%s", shards, got, want)
		}
	}
	old := runtime.GOMAXPROCS(1)
	got := stormSharded(4)
	runtime.GOMAXPROCS(old)
	if got != want {
		t.Errorf("GOMAXPROCS=1 diverged:\n%s\nvs\n%s", got, want)
	}
}

// TestCkptStormInterference pins the experiment's headline claims at a
// scale where the shared file servers genuinely saturate: colliding 1PFPP
// tenants interfere measurably, staggering recovers the loss, and rbIO's
// aggregation largely shields its tenants from the same collision. The run
// is quiet — the exogenous noise model off — so every second of slowdown is
// endogenous contention from the other tenant, nothing else.
func TestCkptStormInterference(t *testing.T) {
	r, err := CkptStorm(Options{Seed: 1, Quiet: true}, 1024, 2)
	if err != nil {
		t.Fatal(err)
	}
	byStrategy := map[string]CkptStormSummary{}
	for _, s := range r.Summaries {
		if s.AloneSec <= 0 {
			t.Fatalf("%s: alone step time %v", s.Strategy, s.AloneSec)
		}
		byStrategy[s.Strategy] = s
	}
	pfpp := byStrategy["1PFPP"]
	rbio := byStrategy["rbIO(64:1,nf=ng)"]
	if pfpp.Strategy == "" || rbio.Strategy == "" {
		t.Fatalf("missing strategies in summaries: %+v", r.Summaries)
	}
	if pfpp.CollidingPenalty < 1.2 {
		t.Errorf("1PFPP colliding penalty %.3fx: no measurable interference", pfpp.CollidingPenalty)
	}
	if pfpp.StaggeredPenalty >= pfpp.CollidingPenalty {
		t.Errorf("1PFPP staggered penalty %.3fx not below colliding %.3fx",
			pfpp.StaggeredPenalty, pfpp.CollidingPenalty)
	}
	if rbio.CollidingPenalty >= pfpp.CollidingPenalty {
		t.Errorf("rbIO colliding penalty %.3fx should sit below 1PFPP's %.3fx (aggregation shields tenants)",
			rbio.CollidingPenalty, pfpp.CollidingPenalty)
	}
	// Attribution sanity: each colliding tenant was credited storage time.
	for _, row := range r.Rows {
		if row.Arm == "colliding" && row.StorageBusy <= 0 {
			t.Errorf("%s tenant %s: no storage time attributed", row.Strategy, row.Tenant)
		}
	}
}

// TestRestartStorm runs the outage scenario end to end on a small machine.
func TestRestartStorm(t *testing.T) {
	r, err := RestartStorm(Options{Seed: 1}, 256, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows: %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.SoloSec <= 0 || row.StormSec <= 0 {
			t.Errorf("tenant %s: non-positive read times %v/%v", row.Tenant, row.SoloSec, row.StormSec)
		}
		if row.Penalty < 0.99 {
			t.Errorf("tenant %s: storm read faster than solo (%.3fx)", row.Tenant, row.Penalty)
		}
		if row.ScanSec <= 0 {
			t.Errorf("tenant %s: restart did not pay a manifest scan (%.3fs)", row.Tenant, row.ScanSec)
		}
	}
	if r.FaultCounts.Fails == 0 || r.FaultCounts.Restores != r.FaultCounts.Fails {
		t.Errorf("outage did not fire symmetrically: %+v", r.FaultCounts)
	}
	if r.ScanBytes <= 0 {
		t.Errorf("manifest scans read no bytes: %+v", r)
	}
	if r.Torn < 0 {
		t.Errorf("negative torn count: %d", r.Torn)
	}
}

// TestRunWorkloadQueued exercises dynamic admission: jobs arrive, queue for
// capacity on an undersized machine, and retire; the trace is deterministic.
func TestRunWorkloadQueued(t *testing.T) {
	wk := Workload{Jobs: 4, Seed: 2, MinNP: 256, MaxNP: 512, Gap: 0.25}
	run := func() *WorkloadResult {
		r, err := RunWorkload(Options{Seed: 5}, wk)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	r := run()
	waited := false
	for _, j := range r.Jobs {
		if j.Res == nil {
			t.Fatalf("job %s never finished", j.Tenant.Name)
		}
		if j.Admitted < j.Tenant.Arrival {
			t.Errorf("job %s admitted %.3f before arrival %.3f", j.Tenant.Name, j.Admitted, j.Tenant.Arrival)
		}
		if j.Admitted > j.Tenant.Arrival {
			waited = true
		}
	}
	if !waited {
		t.Error("no job queued: the workload machine is not undersized")
	}
	if got := run(); got.Table() != r.Table() || got.Makespan != r.Makespan {
		t.Errorf("queued admission nondeterministic:\n%s\nvs\n%s", got.Table(), r.Table())
	}
}

// TestClusterTenantIsolation checks that concurrent tenants keep disjoint
// psets and rank ranges and that their default checkpoint directories never
// collide.
func TestClusterTenantIsolation(t *testing.T) {
	jobs, err := runCluster(Options{Seed: 1}, stormTenants(256, 3, ckpt.DefaultRbIO()))
	if err != nil {
		t.Fatal(err)
	}
	seenPsets := map[int]string{}
	for _, j := range jobs {
		lo, hi := j.Alloc.Psets()
		for p := lo; p < hi; p++ {
			if owner, dup := seenPsets[p]; dup {
				t.Fatalf("pset %d shared by %s and %s", p, owner, j.Tenant.Name)
			}
			seenPsets[p] = j.Tenant.Name
		}
		if j.Res.Checkpoints[0].Bytes <= 0 {
			t.Errorf("tenant %s wrote no bytes", j.Tenant.Name)
		}
	}
}

// TestLaunchQueuedRejectsOversizedTenant pins the queued-admission capacity
// check: a tenant larger than the whole machine fails the launch with a
// typed error naming the tenant, its np and the capacity, and nothing is
// spawned — so the kernel drains cleanly instead of deadlocking on an
// admission that can never happen.
func TestLaunchQueuedRejectsOversizedTenant(t *testing.T) {
	cs, err := newClusterSession(Options{Seed: 1}, scenario{NP: 512, Queued: true})
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := cs.launchQueued([]Tenant{
		{Name: "fits", NP: 256},
		{Name: "huge", NP: 1024},
	})
	var ce *CapacityError
	if !errors.As(err, &ce) {
		t.Fatalf("launchQueued = %v, want *CapacityError", err)
	}
	if ce.Tenant != "huge" || ce.NP != 1024 || ce.Capacity != 512 {
		t.Fatalf("capacity error %+v, want tenant huge np=1024 capacity=512", *ce)
	}
	for _, want := range []string{`"huge"`, "1024", "512"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %s", err, want)
		}
	}
	if jobs != nil {
		t.Fatalf("rejected launch returned jobs: %v", jobs)
	}
	if err := cs.K.Run(); err != nil {
		t.Fatalf("kernel after a rejected launch: %v", err)
	}
	if cs.K.Events() != 0 {
		t.Fatalf("rejected launch dispatched %d events", cs.K.Events())
	}
}
