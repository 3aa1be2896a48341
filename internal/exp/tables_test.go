package exp

import (
	"strings"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/nekcem"
	"repro/internal/recover"
	"repro/internal/table"
)

// TestTableFormats pins the text layout of every result table from literal
// rows, with no simulation: headers, column order, number formats and the
// "-" placeholders. The simulation goldens cover a few tables with real
// numbers; this one covers all of them, cheaply.
func TestTableFormats(t *testing.T) {
	headline := []HeadlineRow{
		{NP: 16384, Approach: "1PFPP", S: 3_221_225_472, StepSec: 152.37, GBps: 0.912, Ratio: 491.6},
		{NP: 65536, Approach: "rbIO, nf=ng", S: 12_884_901_888, StepSec: 0.463, GBps: 13.049, Ratio: 1.49},
	}
	bb := &BBSizeResult{
		Rows: []BBSizeRow{
			{Strategy: "rbio", Ratio: 32, Psets: 16, Fleet: 4, Drain: "deadline", WriterSec: 0.0312, StepSec: 0.044,
				DurableSec: 1.987, DrainTailSec: 1.943, QueueSec: 0, SpillBytes: 0, PeakBacklog: 201326592, DurableGBps: 0.2},
			{Strategy: "rbio", Ratio: 64, Psets: 8, Fleet: 0, Drain: "sync", WriterSec: 1.25, StepSec: 1.3,
				DurableSec: 1.3, SpillBytes: 1048576, DurableGBps: 0.31},
		},
		Faulted: []BBFaultRow{
			{Fleet: 1, Drain: "fifo", Fails: 3, LostBytes: 50331648, LossEvents: 1, SpillBytes: 0, Lost: true},
			{Fleet: 8, Drain: "deadline", Fails: 12, LostBytes: 0, LossEvents: 0, SpillBytes: 4096},
		},
	}
	storm := &CkptStormResult{
		Rows: []CkptStormRow{
			{Strategy: "1pfpp", Arm: "alone", Tenant: "t0", StepSec: 2.5, GBps: 0.41, Penalty: 0, StorageBusy: 2.01, FabricBusy: 0.3},
			{Strategy: "1pfpp", Arm: "colliding", Tenant: "t1", StepSec: 5.0625, GBps: 0.2, Penalty: 2.025, StorageBusy: 4.5, FabricBusy: 0.35},
		},
		Summaries: []CkptStormSummary{
			{Strategy: "1pfpp", AloneSec: 2.5, StaggeredPenalty: 1.04, CollidingPenalty: 2.025},
			{Strategy: "rbio", AloneSec: 0.1234, StaggeredPenalty: 1, CollidingPenalty: 1.1},
		},
	}
	rbio := ckpt.MustNew("rbio", 512)
	workload := &WorkloadResult{Jobs: []*TenantJob{
		{Tenant: Tenant{Name: "j0", NP: 512, Strategy: rbio, Arrival: 0}, Admitted: 0, Res: &nekcem.RunResult{Done: 3.14159}},
		{Tenant: Tenant{Name: "j1", NP: 1024, Strategy: ckpt.MustNew("1pfpp", 1024), Arrival: 1.5}, Admitted: 4.25, Res: &nekcem.RunResult{Done: 12}},
	}}
	dist := &Distribution{
		Label: "Fig11 rbIO 64:1 nf=ng", NP: 4,
		ByRole: map[ckpt.Role][]float64{
			ckpt.RoleWorker: {0.00012, 0.00031, 0.00009},
			ckpt.RoleWriter: {1.5},
		},
		Min: 0.00009, Median: 0.00031, P95: 0.00031, Max: 1.5, Spread: 4838.7,
	}

	tables := []struct {
		name string
		text string
	}{
		{"fig5", Fig5Table(headline)},
		{"fig6", HeadlineTable(6, headline)},
		{"fig7", HeadlineTable(7, headline)},
		{"fig8", table.Of([]Fig8Row{{NP: 16384, NF: 256, GBps: 9.876}, {NP: 65536, NF: 4096, GBps: 13.0}})},
		{"table1", table.Of([]TableIRow{{NP: 16384, SendCycles: 2771.4, PerceivedTBps: 20.5}, {NP: 65536, SendCycles: 2900.6, PerceivedTBps: 81.49}})},
		{"asyncfrontier", table.Of([]AsyncFrontierRow{
			{Strategy: "rbio", NP: 2048, BlockedSec: 0.4125, FlushSec: 0, StepSec: 0.41, Makespan: 48.05, Trials: 4, Kills: 3, AvgStaleSec: 12.345, MaxStaleSec: 20, LostTrials: 0},
			{Strategy: "async", NP: 2048, BlockedSec: 0.0021, FlushSec: 1.255, StepSec: 1.3, Makespan: 47.5, Trials: 4, Kills: 5, AvgStaleSec: 15, MaxStaleSec: 31.75, LostTrials: 1},
		})},
		{"faultsweep", table.Of([]FaultRow{
			{Strategy: "1pfpp", FS: "gpfs", MTBFHours: 6, Trials: 8, Lost: lossTally{0, 8}, RestartOK: restartTally{8, 8}},
			{Strategy: "rbio", FS: "bbuf", MTBFHours: 0.09375, Trials: 8, Lost: lossTally{3, 8}, RestartOK: restartTally{4, 5}, AvgFails: 2.125, AvgDeadRanks: 64, AvgMissing: 1.5, AvgFailovers: 0.375},
		})},
		{"makespan", table.Of([]MakespanRow{
			{Strategy: "1pfpp", NP: 2048, MTBFHours: 1.5, SysMTBF: 2.1, C: 40.25, R: 12.5, TauOpt: 12.9, NumCkpts: 6700, MakespanHours: 1e7 / 3600, Overhead: 11474.1},
			{Strategy: "rbio", NP: 2048, MTBFHours: 24, SysMTBF: 34.2, C: 0.46, R: 1.04, TauOpt: 5.6, NumCkpts: 15428.6, MakespanHours: 96336.0 / 3600, Overhead: 11.5},
		})},
		{"bbsize", bb.Table()},
		{"bbsize-faulted", bb.FaultTable()},
		{"drainoverlap", table.Of([]DrainRow{
			{FS: "gpfs", NP: 2048, WriterSec: 0.41, StepSec: 0.46, DrainTailSec: 0.035, DurableGBps: 0.4},
			{FS: "bbuf", NP: 2048, WriterSec: 0.03, StepSec: 0.044, DrainTailSec: 1.9, DurableGBps: 0.2},
		})},
		{"multilevel", table.Of([]MLRow{
			{Strategy: "rbio", NP: 16384, Ckpts: 4, TotalSec: 9.84, WallSec: 21.05, PFSFiles: 1024},
			{Strategy: "multilevel", NP: 16384, Ckpts: 4, TotalSec: 3.5, WallSec: 14.75, PFSFiles: 256},
		})},
		{"mapsweep", table.Of([]MapRow{
			{Policy: "txyz", Strategy: "rbio", NP: 2048, GBps: 4.567, StepSec: 0.46},
			{Policy: "roundrobin", Strategy: "1pfpp", NP: 2048, GBps: 0.5, StepSec: 12.25},
		})},
		{"psetratio", table.Of([]PsetRatioRow{
			{NodesPerPset: 16, Strategy: "rbio", NP: 2048, GBps: 6.05, StepSec: 0.31},
			{NodesPerPset: 128, Strategy: "coio", NP: 2048, GBps: 1.995, StepSec: 1.05},
		})},
		{"ckptstorm", table.Of(storm.Rows)},
		{"ckptstorm-summary", table.Of(storm.Summaries)},
		{"restartstorm", table.Of([]RestartStormRow{
			{Tenant: "t0", ScanSec: 0.00123, Torn: 0, SoloSec: 0.5, StormSec: 0.9, Penalty: 1.8},
			{Tenant: "t1", ScanSec: 0.01, Torn: 2, SoloSec: 0.4567, StormSec: 1.2, Penalty: 2.6275},
		})},
		{"workload", workload.Table()},
		{"distribution", dist.Table()},
		{"fig12", table.Of([]Fig12Row{
			{T: 0, RbIOWriters: 512, RbIOMBps: 4096.4, CoIOWriters: 0, CoIOMBps: 0},
			{T: 0.5, RbIOWriters: 3, RbIOMBps: 12.5, CoIOWriters: 256, CoIOMBps: 987.6},
		})},
		{"recovery", RecoveryTable([]RecoveryRow{
			{Strategy: "rbio", NP: 256, C: 0.045, Makespan: 40.25, Daly: 39.5, Ratio: 40.25 / 39.5, Segments: 1},
			{Strategy: "rbio", NP: 256, MTBFHours: 1.5, SysMTBF: 16.875, C: 0.05, R: 0.125,
				Makespan: 61, Daly: 44.2, Ratio: 61 / 44.2, Segments: 4, Rollbacks: 3, Torn: 1, Rework: 7,
				Kills: recover.KillStats{MidEpochTorn: 1, MidEpochSealed: 0, Idle: 2}},
		})},
		{"fscompare", table.Of([]FSRow{
			{FS: "gpfs", Strategy: "rbio", NP: 2048, GBps: 4.5, StepSec: 0.46},
			{FS: "pvfs", Strategy: "1pfpp", NP: 2048, GBps: 0.123, StepSec: 17.05},
		})},
		{"eq1", table.Of([]Eq1Result{{NP: 16384, NC: 20, Ratio1PFPP: 491.6, RatioRbIO: 1.49, Formula: 23.52, Measured: 25}})},
		{"eq7", table.Of([]SpeedupResult{{NP: 16384, TcoIO: 123456.7, TrbIO: 0.04567, Measured: 2703196, BWcoIO: 1e9, BWrbIO: 1.3e10, Analytic: 832}})},
		{"meshread", table.Of([]MeshReadRow{{E: 139264, NP: 32768, Seconds: 7.46}, {E: 559104, NP: 131072, Seconds: 28.05}})},
		{"ablations", table.Of([]AblationRow{
			{Ablation: "domain alignment", Variant: "aligned", NP: 16384, GBps: 2.345, StepSec: 1.375, Extra: "0 token revocations"},
			{Ablation: "writer buffering", Variant: "per-field commit", NP: 16384, GBps: 5.5, StepSec: 0.6},
		})},
		{"restart", table.Of([]RestartRow{{Strategy: "1pfpp", NP: 16384, WriteSec: 152.37, RestartSec: 60.04}, {Strategy: "rbio", NP: 16384, WriteSec: 0.46, RestartSec: 3.25}})},
		{"priorwork", table.Of([]PriorWorkRow{{Machine: "BG/L", NP: 32768, GBps: 2.297, PerceivedTBps: 21.4}, {Machine: "BG/P (Intrepid)", NP: 32768, GBps: 11.5, PerceivedTBps: 60.5}})},
	}
	var b strings.Builder
	for _, tab := range tables {
		b.WriteString("== " + tab.name + " ==\n" + tab.text + "\n")
	}
	checkGolden(t, "tables.golden", b.String())
}
