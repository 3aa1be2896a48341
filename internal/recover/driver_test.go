package recover

import (
	"testing"

	"repro/internal/ckpt"
	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/nekcem"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/xrand"
)

// lifecycle runs one closed-loop lifecycle at small scale on a fresh
// Intrepid partition with quiet GPFS, optionally with a fault schedule
// armed, and returns the result plus the manifest log.
func lifecycle(t *testing.T, np int, strat ckpt.Strategy, segCkpts, work, ce int, sched fault.Schedule) (*Result, *Log, fault.Schedule) {
	t.Helper()
	k := sim.NewKernel()
	m := machine.MustNew(k, xrand.New(1), machine.Intrepid(np))
	gcfg := storage.DefaultGPFS()
	gcfg.NoiseProb = 0
	fs, err := storage.NewGPFS(m, gcfg)
	if err != nil {
		t.Fatal(err)
	}
	var inj *fault.Injector
	if sched != nil {
		inj = fault.NewInjector(k, sched)
		fs.EnableFaults(inj, xrand.New(9))
	}
	log := NewLog(1, np)
	base := nekcem.RunConfig{
		Mesh: nekcem.PaperMesh(np), Strategy: strat, Synthetic: true,
		SkipPresetup: true, PayloadFactor: nekcem.PaperPayloadFactor,
		Compute: nekcem.DefaultComputeModel(),
	}
	if inj != nil {
		base.RankUp = func(rank int) bool { return inj.Up(fault.Node, m.NodeOfRank(rank)) }
	}
	res, err := Run(k, Config{
		FS:       fs,
		NewWorld: func() *mpi.World { return mpi.NewWorld(m, mpi.DefaultConfig()) },
		Base:     base,
		Log:      log, Work: work, CheckpointEvery: ce, SegmentCkpts: segCkpts,
		Injector: inj,
		Nodes:    m.NumNodes(), IONs: m.NumPsets(), Servers: numServers(fs),
	})
	if err != nil {
		t.Fatalf("lifecycle: %v", err)
	}
	return res, log, sched
}

func numServers(fs interface{}) int {
	if sc, ok := fs.(interface{ Servers() []*storage.Server }); ok {
		return len(sc.Servers())
	}
	return 0
}

func sealedGlobals(l *Log) (sealed, torn int) {
	for _, e := range l.Epochs(ckpt.LevelGlobal) {
		if e.Sealed() {
			sealed++
		} else {
			torn++
		}
	}
	return
}

// TestFaultFreeLifecycles: every strategy family completes its work budget
// with no rollbacks and every global epoch sealed — the epoch-emission
// coverage check for all four instrumented strategies.
func TestFaultFreeLifecycles(t *testing.T) {
	ml := ckpt.DefaultMultiLevel()
	fams := []struct {
		name     string
		strat    ckpt.Strategy
		segCkpts int
		epochs   int // expected sealed global epochs
	}{
		{"1pfpp", ckpt.OnePFPP{}, 1, 3},
		{"coio", ckpt.CoIO{NumFiles: 2, Hints: mpiio.DefaultHints()}, 1, 3},
		{"rbio", rbioWithGroup(32), 1, 3},
		// One segment spans GlobalEvery intervals; 3 segments -> 3 global
		// flushes (each segment's count-th checkpoint is the global one).
		{"multilevel", ml, ml.GlobalEvery, 3},
	}
	for _, f := range fams {
		f := f
		t.Run(f.name, func(t *testing.T) {
			t.Parallel()
			work := 3 * 2 * f.segCkpts // 3 segments of segCkpts intervals, ce=2
			res, log, _ := lifecycle(t, 128, f.strat, f.segCkpts, work, 2, nil)
			if res.Rollbacks != 0 || res.TornSeen != 0 {
				t.Fatalf("fault-free lifecycle rolled back: %+v", res)
			}
			if res.Segments != 3 {
				t.Fatalf("segments = %d, want 3", res.Segments)
			}
			sealed, torn := sealedGlobals(log)
			if sealed != f.epochs || torn != 0 {
				t.Fatalf("global epochs sealed=%d torn=%d, want %d/0", sealed, torn, f.epochs)
			}
			if res.Makespan <= 0 || res.CkptCount == 0 || res.MeanCkpt() <= 0 {
				t.Fatalf("degenerate measurements: %+v", res)
			}
		})
	}
}

func rbioWithGroup(gs int) ckpt.Strategy {
	s := ckpt.DefaultRbIO()
	s.GroupSize = gs
	return s
}

// TestMidEpochKillDetectedAndRecovered places a node kill inside a known
// epoch-write window (learned from the identical fault-free run), and checks
// the full loop: the tear is detected by the restart scan, the lifecycle
// rolls back to the newest sealed epoch, re-executes, and still banks the
// whole work budget. The kill classification must account for the kill as
// exactly one of torn or sealed — never silent.
func TestMidEpochKillDetectedAndRecovered(t *testing.T) {
	const np, work, ce = 64, 12, 4
	// Fault-free probe: learn when epoch 2 (global step 8) is in flight.
	_, probe, _ := lifecycle(t, np, ckpt.OnePFPP{}, 1, work, ce, nil)
	e2 := epoch(probe, ckpt.LevelGlobal, 8)
	if e2 == nil || !e2.Sealed() {
		t.Fatalf("probe run has no sealed epoch at step 8: %+v", e2)
	}
	mid := (e2.FirstBlockAt + e2.SealedAt) / 2
	sched := fault.Schedule{
		{Time: mid, Class: fault.Node, Index: 0, Kind: fault.Fail},
		{Time: mid + 30, Class: fault.Node, Index: 0, Kind: fault.Restore},
	}

	res, log, _ := lifecycle(t, np, ckpt.OnePFPP{}, 1, work, ce, sched)
	if res.Rollbacks < 1 {
		t.Fatalf("mid-epoch kill caused no rollback: %+v", res)
	}
	if res.TornSeen < 1 {
		t.Fatalf("restart scan detected no torn epoch: %+v", res)
	}
	if len(res.RestartFrom) == 0 || res.RestartFrom[0] != 4 {
		t.Fatalf("restart picked %v, want the sealed step-4 epoch first", res.RestartFrom)
	}
	if res.LostSegSteps < ce {
		t.Fatalf("crashed segment's steps not accounted lost: %+v", res)
	}
	if res.ScanBytes <= 0 || res.ScanTime <= 0 || res.RestartTime <= 0 {
		t.Fatalf("rollback charged no scan/restore traffic: %+v", res)
	}
	if res.WaitTime <= 0 {
		t.Fatalf("driver never waited for the node repair: %+v", res)
	}

	ks := ClassifyKills(log, sched, res.End)
	if kills := ks.MidEpochTorn + ks.MidEpochSealed + ks.Idle; kills != 1 {
		t.Fatalf("classified %d kills, schedule injected 1: %+v", kills, ks)
	}
	if ks.MidEpochTorn != 1 {
		t.Fatalf("the mid-epoch kill must land in the torn bucket: %+v", ks)
	}
}

// TestMultilevelKillRollsBackToGlobal: a kill between two global flushes
// tears the in-flight global epoch, and the scan (which only trusts the
// global level across a node loss) rolls back to the previous global epoch
// even though newer local-level epochs exist.
func TestMultilevelKillRollsBackToGlobal(t *testing.T) {
	ml := ckpt.DefaultMultiLevel()
	const np, ce = 64, 2
	seg := ml.GlobalEvery
	work := 2 * ce * seg // two segments, one global flush each (steps 8, 16)
	_, probe, _ := lifecycle(t, np, ml, seg, work, ce, nil)
	g2 := epoch(probe, ckpt.LevelGlobal, int64(2*ce*seg))
	if g2 == nil || !g2.Sealed() {
		t.Fatalf("probe run has no sealed global epoch at step %d", 2*ce*seg)
	}
	mid := (g2.FirstBlockAt + g2.SealedAt) / 2
	sched := fault.Schedule{
		{Time: mid, Class: fault.Node, Index: 1, Kind: fault.Fail},
		{Time: mid + 30, Class: fault.Node, Index: 1, Kind: fault.Restore},
	}

	res, log, _ := lifecycle(t, np, ml, seg, work, ce, sched)
	if res.Rollbacks < 1 || len(res.RestartFrom) == 0 {
		t.Fatalf("no rollback recorded: %+v", res)
	}
	if res.RestartFrom[0] != int64(ce*seg) {
		t.Fatalf("restarted from step %d, want the previous global flush at %d",
			res.RestartFrom[0], ce*seg)
	}
	// The crashed attempt's local epochs at newer steps must not have been
	// trusted: the pick is strictly older than the torn global epoch.
	if p := log.NewestSealed(ckpt.LevelGlobal, mid); p == nil || p.Step != int64(ce*seg) {
		t.Fatalf("NewestSealed(global) = %+v, want step %d", p, ce*seg)
	}
}

// TestLifecycleDeterministic: identical configs (including the fault
// schedule) produce identical measured results.
func TestLifecycleDeterministic(t *testing.T) {
	const np, work, ce = 64, 12, 4
	_, probe, _ := lifecycle(t, np, ckpt.OnePFPP{}, 1, work, ce, nil)
	e2 := epoch(probe, ckpt.LevelGlobal, 8)
	mid := (e2.FirstBlockAt + e2.SealedAt) / 2
	sched := fault.Schedule{
		{Time: mid, Class: fault.Node, Index: 0, Kind: fault.Fail},
		{Time: mid + 30, Class: fault.Node, Index: 0, Kind: fault.Restore},
	}
	a, _, _ := lifecycle(t, np, ckpt.OnePFPP{}, 1, work, ce, sched)
	b, _, _ := lifecycle(t, np, ckpt.OnePFPP{}, 1, work, ce, sched)
	if a.Makespan != b.Makespan || a.Rollbacks != b.Rollbacks ||
		a.ScanBytes != b.ScanBytes || a.ScanTime != b.ScanTime ||
		a.RestartTime != b.RestartTime || a.WaitTime != b.WaitTime ||
		a.CkptTime != b.CkptTime || a.Segments != b.Segments {
		t.Fatalf("lifecycle not deterministic:\n a=%+v\n b=%+v", a, b)
	}
}
