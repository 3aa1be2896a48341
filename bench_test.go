// Benchmarks regenerating every table and figure of the paper's evaluation
// (macro benchmarks, one simulated experiment per iteration — with the
// default -benchtime they run once and print the paper-comparable series),
// plus micro benchmarks for the substrate hot paths.
//
//	go test -bench=. -benchmem                    # everything (paper scale; ~20-40 min)
//	go test -bench=BenchmarkFig5to7 -benchmem     # one experiment
//	go test -bench=Micro -benchmem                # substrate micro benchmarks only
package repro_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/bbuf"
	"repro/internal/cemfmt"
	"repro/internal/ckpt"
	"repro/internal/data"
	"repro/internal/exp"
	"repro/internal/fsys"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/nekcem"
	"repro/internal/perf"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/table"
	"repro/internal/xrand"
)

// printOnce keeps re-runs of a benchmark from spamming the tables.
var printOnce sync.Map

func report(b *testing.B, key, table string) {
	b.Helper()
	if _, done := printOnce.LoadOrStore(key, true); !done {
		fmt.Printf("\n== %s ==\n%s\n", key, table)
	}
}

func opts() exp.Options { return exp.Options{Seed: 1} }

// BenchmarkFig5to7Headline regenerates Figures 5 (write bandwidth), 6
// (checkpoint step time) and 7 (checkpoint/compute ratio): the five I/O
// approaches at 16K/32K/64K ranks, paper scale.
func BenchmarkFig5to7Headline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.Headline(opts())
		if err != nil {
			b.Fatal(err)
		}
		report(b, "Figure 5: write bandwidth (GB/s)", exp.Fig5Table(rows))
		report(b, "Figure 6: overall time per checkpoint step (s)", exp.HeadlineTable(6, rows))
		report(b, "Figure 7: checkpoint/computation time ratio", exp.HeadlineTable(7, rows))
		// Headline metric: rbIO nf=ng bandwidth at 64K (paper: >13 GB/s).
		b.ReportMetric(rows[len(rows)-1].GBps, "rbIO-64K-GB/s")
	}
}

// BenchmarkFig8FileCountSweep regenerates Figure 8: rbIO (nf = ng)
// bandwidth against the number of files at each scale; the paper's optimum
// is nf = 1024.
func BenchmarkFig8FileCountSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.Fig8(opts())
		if err != nil {
			b.Fatal(err)
		}
		report(b, "Figure 8: rbIO bandwidth vs number of files", table.Of(rows))
		best := rows[0]
		for _, r := range rows {
			if r.NP == 65536 && r.GBps > best.GBps {
				best = r
			}
		}
		b.ReportMetric(float64(best.NF), "best-nf-at-64K")
	}
}

// BenchmarkFig9Distribution1PFPP regenerates Figure 9: the per-rank I/O
// time scatter of 1PFPP at 16,384 ranks (metadata-queue variance).
func BenchmarkFig9Distribution1PFPP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d, err := exp.Fig9(opts())
		if err != nil {
			b.Fatal(err)
		}
		report(b, "Figure 9: I/O time distribution, 1PFPP @16K", d.Table())
		b.ReportMetric(d.Max, "max-rank-s")
		b.ReportMetric(d.Spread, "max/median")
	}
}

// BenchmarkFig10DistributionCoIO regenerates Figure 10: coIO 64:1 at
// 65,536 ranks — synchronized around the median with heavy-tail outliers.
func BenchmarkFig10DistributionCoIO(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d, err := exp.Fig10(opts())
		if err != nil {
			b.Fatal(err)
		}
		report(b, "Figure 10: I/O time distribution, coIO 64:1 @64K", d.Table())
		b.ReportMetric(d.Median, "median-s")
		b.ReportMetric(d.Max, "max-rank-s")
	}
}

// BenchmarkFig11DistributionRbIO regenerates Figure 11: rbIO at 65,536
// ranks — the two bands (workers near zero, writers flat).
func BenchmarkFig11DistributionRbIO(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d, err := exp.Fig11(opts())
		if err != nil {
			b.Fatal(err)
		}
		report(b, "Figure 11: I/O time distribution, rbIO @64K", d.Table())
		workers := d.ByRole[ckpt.RoleWorker]
		writers := d.ByRole[ckpt.RoleWriter]
		if len(workers) > 0 && len(writers) > 0 {
			b.ReportMetric(workers[len(workers)/2]*1e6, "worker-median-us")
			b.ReportMetric(writers[len(writers)/2], "writer-median-s")
		}
	}
}

// BenchmarkFig12WriteActivity regenerates Figure 12: the Darshan-style
// write-activity timelines of rbIO versus coIO at 32K ranks.
func BenchmarkFig12WriteActivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.Fig12(opts())
		if err != nil {
			b.Fatal(err)
		}
		report(b, "Figure 12: write activity, rbIO vs coIO @32K", table.Of(rows))
	}
}

// BenchmarkTableIPerceivedBandwidth regenerates Table I: rbIO's perceived
// write performance (CPU cycles per worker send; TB/s aggregate).
func BenchmarkTableIPerceivedBandwidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.TableI(opts())
		if err != nil {
			b.Fatal(err)
		}
		report(b, "Table I: perceived write performance (rbIO)", table.Of(rows))
		b.ReportMetric(rows[len(rows)-1].PerceivedTBps, "perceived-64K-TB/s")
	}
}

// BenchmarkEq1ProductionImprovement regenerates the paper's Equation (1)
// estimate (~25x production improvement of rbIO over 1PFPP at nc=20) plus
// the directly measured end-to-end improvement.
func BenchmarkEq1ProductionImprovement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.Eq1(opts(), 16384, 20)
		if err != nil {
			b.Fatal(err)
		}
		report(b, "Equation 1: production improvement @16K, nc=20", table.Of([]exp.Eq1Result{*res}))
		b.ReportMetric(res.Formula, "Eq1-improvement-x")
	}
}

// BenchmarkEq7Speedup regenerates the Section V-C2 blocked-time analysis:
// measured total blocked processor-time ratio versus Equation (7).
func BenchmarkEq7Speedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.Speedup(opts(), 16384)
		if err != nil {
			b.Fatal(err)
		}
		report(b, "Equations 2-7: rbIO/coIO blocked-time speedup @16K", table.Of([]exp.SpeedupResult{*res}))
		b.ReportMetric(res.Measured, "measured-x")
		b.ReportMetric(res.Analytic, "Eq7-x")
	}
}

// BenchmarkMeshRead regenerates the Section III-B presetup measurements:
// 7.5 s for E=136K on 32K ranks and 28 s for E=546K on 131K ranks.
func BenchmarkMeshRead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.MeshRead(opts())
		if err != nil {
			b.Fatal(err)
		}
		report(b, "Section III-B: global mesh read (presetup)", table.Of(rows))
		b.ReportMetric(rows[0].Seconds, "E136K-32K-s")
	}
}

// Ablation benchmarks: the design choices DESIGN.md calls out.

func BenchmarkAblationAlignment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.AblateAlignment(opts(), 16384)
		if err != nil {
			b.Fatal(err)
		}
		report(b, "Ablation: file-domain alignment (coIO nf=1 @16K)", table.Of(rows))
	}
}

func BenchmarkAblationWriterBuffer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.AblateWriterBuffer(opts(), 16384)
		if err != nil {
			b.Fatal(err)
		}
		report(b, "Ablation: rbIO writer field-buffering @16K", table.Of(rows))
	}
}

func BenchmarkAblationAggRatio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.AblateGroupRatio(opts(), 16384)
		if err != nil {
			b.Fatal(err)
		}
		report(b, "Ablation: rbIO np:ng ratio @16K", table.Of(rows))
	}
}

func BenchmarkAblationIONCache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.AblateIONCache(opts(), 16384)
		if err != nil {
			b.Fatal(err)
		}
		report(b, "Ablation: ION write-behind cache (rbIO @16K)", table.Of(rows))
	}
}

func BenchmarkAblationNoise(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.AblateNoise(opts(), 65536)
		if err != nil {
			b.Fatal(err)
		}
		report(b, "Ablation: shared-storage noise (coIO 64:1 @64K)", table.Of(rows))
	}
}

// BenchmarkExtensionFSComparison runs the GPFS-versus-PVFS comparison the
// paper discusses but could not publish (Section V-C1), at 16K ranks.
func BenchmarkExtensionFSComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.FSComparison(opts(), 16384)
		if err != nil {
			b.Fatal(err)
		}
		report(b, "Extension: GPFS vs PVFS @16K", table.Of(rows))
	}
}

// BenchmarkExtensionPriorWorkBGL reproduces the prior-work numbers the
// paper cites (reference [3]): rbIO on a 32K Blue Gene/L reached 2.3 GB/s
// raw and 21 TB/s perceived bandwidth.
func BenchmarkExtensionPriorWorkBGL(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.PriorWorkBGL(opts())
		if err != nil {
			b.Fatal(err)
		}
		report(b, "Extension: prior work [3], rbIO on BG/L @32K", table.Of(rows))
		b.ReportMetric(rows[0].GBps, "BGL-GB/s")
		b.ReportMetric(rows[0].PerceivedTBps, "BGL-perceived-TB/s")
	}
}

// BenchmarkExtensionRestart measures each strategy's restart (read-side)
// performance at 16K ranks.
func BenchmarkExtensionRestart(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.RestartStudy(opts(), 16384)
		if err != nil {
			b.Fatal(err)
		}
		report(b, "Extension: restart performance @16K", table.Of(rows))
	}
}

func BenchmarkAblationBlockSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.AblateBlockSize(opts(), 16384)
		if err != nil {
			b.Fatal(err)
		}
		report(b, "Ablation: GPFS block size (rbIO @16K)", table.Of(rows))
	}
}

// BenchmarkExtensionMultiLevel measures the SCR-style multi-level
// checkpointing extension against plain rbIO at 16K ranks.
func BenchmarkExtensionMultiLevel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.MultiLevelStudy(opts(), 16384)
		if err != nil {
			b.Fatal(err)
		}
		report(b, "Extension: multi-level checkpointing @16K", table.Of(rows))
	}
}

// ---------------------------------------------------------------------------
// Performance-regression benchmarks for the calendar-queue kernel and the
// process handoff path. The end-to-end perf record lives in bench/ (`make
// perf`).

// churnHook is a pooled self-rescheduling event: the steady-state calendar
// workload with zero allocation pressure of its own.
type churnHook struct {
	k    *sim.Kernel
	left *int
	rng  uint64
}

func (h *churnHook) Fire() {
	if *h.left <= 0 {
		return
	}
	*h.left--
	// xorshift so the population spreads over many buckets instead of
	// marching in lockstep.
	h.rng ^= h.rng << 13
	h.rng ^= h.rng >> 7
	h.rng ^= h.rng << 17
	h.k.AfterHook(1e-7+float64(h.rng%1024)*1e-8, h)
}

// BenchmarkKernelEventChurn measures raw calendar push/pop throughput with a
// standing population of a thousand pooled events. Steady state must be
// allocation-free: 0 allocs/op is part of the kernel's contract.
func BenchmarkKernelEventChurn(b *testing.B) {
	k := sim.NewKernel()
	left := b.N
	const standing = 1024
	for i := 0; i < standing; i++ {
		k.AfterHook(float64(i+1)*1e-7, &churnHook{k: k, left: &left, rng: uint64(i)*2654435761 + 1})
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	eps := float64(k.Events()) / b.Elapsed().Seconds()
	b.ReportMetric(eps, "events/s")
}

// BenchmarkProcHandoff measures the full baton handoff: a parked process
// resumed by a peer, costing two coroutine switches (yield to the driver,
// resume of the next process) each way. (BenchmarkMicroProcSwitch measures the Sleep fast path, which
// elides the handoff entirely.)
func BenchmarkProcHandoff(b *testing.B) {
	k := sim.NewKernel()
	var sleeper *sim.Proc
	sleeper = k.Go("sleeper", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			p.Park()
		}
	})
	k.Go("waker", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			sleeper.Unpark()
			p.Sleep(1e-6)
		}
	})
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkResourceQueue measures Acquire/Release cycling through a deep FIFO
// wait queue (64 contenders on one unit), the pattern a 1PFPP metadata server
// sees at scale.
func BenchmarkResourceQueue(b *testing.B) {
	k := sim.NewKernel()
	res := sim.NewResource(1)
	const contenders = 64
	per := b.N/contenders + 1
	for i := 0; i < contenders; i++ {
		k.Go(fmt.Sprintf("c%d", i), func(p *sim.Proc) {
			for j := 0; j < per; j++ {
				res.Acquire(p)
				p.Sleep(1e-8)
				res.Release()
			}
		})
	}
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkFig5Wallclock measures the end-to-end cost of regenerating
// Figure 5's 64K-rank column — all five approaches — the number the
// calendar-queue kernel and handoff work are judged by. The experiment
// fan-out uses the default worker pool, so multi-core machines overlap the
// five arms.
func BenchmarkFig5Wallclock(b *testing.B) {
	o := opts()
	o.NPs = []int{65536}
	perf.TuneGC()
	var events uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runs, err := exp.RunAll(o)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range runs {
			events += r.Events
		}
	}
	b.StopTimer()
	eps := float64(events) / b.Elapsed().Seconds()
	b.ReportMetric(eps, "events/s")
	b.ReportMetric(b.Elapsed().Seconds()/float64(b.N), "s/sweep")
}

// BenchmarkFig5Partitioned measures the partitioned parallel kernel against
// the serial kernel. The 64K arms regenerate Figure 5's 64K-rank column
// (all five approaches) with the experiment worker pool pinned to one, so
// the in-simulation lane workers are the only parallelism — the speedup
// measured is the partitioned kernel's alone, and on a single-core machine
// it honestly reports the coordination overhead instead. The 1M arm times
// the paper's best approach (rbIO nf=ng) at np=1,048,576 on the partitioned
// kernel, the scale the partitioning exists for.
func BenchmarkFig5Partitioned(b *testing.B) {
	perf.TuneGC()
	arms := []struct {
		name       string
		np, shards int
		approaches []int
	}{
		{"serial64K", 65536, 1, nil},
		{"sharded64K", 65536, 8, nil},
		{"sharded1M", 1048576, 8, []int{4}},
	}
	for _, arm := range arms {
		b.Run(arm.name, func(b *testing.B) {
			o := opts()
			o.NPs = []int{arm.np}
			o.Parallel = 1
			o.Shards = arm.shards
			var events uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runs, err := exp.RunAll(o, arm.approaches...)
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range runs {
					events += r.Events
				}
			}
			b.StopTimer()
			eps := float64(events) / b.Elapsed().Seconds()
			b.ReportMetric(eps, "events/s")
			b.ReportMetric(float64(events)/float64(b.N), "events/sweep")
			b.ReportMetric(b.Elapsed().Seconds()/float64(b.N), "s/sweep")
		})
	}
}

// BenchmarkRecovery measures the closed-loop checkpoint/restart lifecycle
// study at 2048 ranks: all four strategy families, one fault-free arm plus
// the full MTBF ladder each, every rollback really scanning manifests and
// re-reading its picked epoch. The reported metrics carry the experiment's
// headline physics — the worst measured-over-Daly ratio and the total
// rollback/torn counts — so a regression in the recovery path or the epoch
// protocol shows up in the numbers, not just the wall clock.
func BenchmarkRecovery(b *testing.B) {
	perf.TuneGC()
	var rows []exp.RecoveryRow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = exp.RecoveryStudy(opts(), 2048, 6, 120, 12)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	report(b, "Recovery: measured lifecycle vs the Daly model @2048", exp.RecoveryTable(rows))
	worstRatio, rollbacks, torn := 0.0, 0, 0
	for _, r := range rows {
		if r.Daly > 0 && r.Makespan/r.Daly > worstRatio {
			worstRatio = r.Makespan / r.Daly
		}
		rollbacks += r.Rollbacks
		torn += r.Torn
	}
	b.ReportMetric(worstRatio, "worst-measured/daly-x")
	b.ReportMetric(float64(rollbacks), "rollbacks")
	b.ReportMetric(float64(torn), "torn-epochs")
}

// ---------------------------------------------------------------------------
// Micro benchmarks: substrate hot paths.

// BenchmarkMicroKernelEvents measures raw event throughput of the DES
// kernel.
func BenchmarkMicroKernelEvents(b *testing.B) {
	k := sim.NewKernel()
	var fire func(depth int)
	n := 0
	fire = func(depth int) {
		n++
		if n < b.N {
			k.At(k.Now()+1e-6, func() { fire(depth + 1) })
		}
	}
	b.ResetTimer()
	k.At(k.Now(), func() { fire(0) })
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkMicroProcSwitch measures the strict-handoff context switch.
func BenchmarkMicroProcSwitch(b *testing.B) {
	k := sim.NewKernel()
	k.Go("bench", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1e-9)
		}
	})
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkMicroTorusRoute measures dimension-ordered route computation on
// the 64K-rank partition's torus.
func BenchmarkMicroTorusRoute(b *testing.B) {
	t := machine.TorusDims(16384)
	var route []int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		route = t.AppendRoute(route[:0], i%t.Nodes(), (i*2654435761)%t.Nodes())
	}
}

// BenchmarkMicroTorusTransfer measures the contention-tracked transfer
// arithmetic.
func BenchmarkMicroTorusTransfer(b *testing.B) {
	m := machine.MustNew(sim.NewKernel(), xrand.New(1), machine.Intrepid(4096))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Net.Transfer(float64(i), i%1024, (i*31)%1024, 1<<20)
	}
}

// BenchmarkMicroP2P measures an MPI send/recv pair end to end through the
// simulator.
func BenchmarkMicroP2P(b *testing.B) {
	k := sim.NewKernel()
	m := machine.MustNew(k, xrand.New(1), machine.Intrepid(64))
	w := mpi.NewWorld(m, mpi.DefaultConfig())
	b.ResetTimer()
	err := w.Run(func(c *mpi.Comm, r *mpi.Rank) {
		switch r.ID() {
		case 0:
			for i := 0; i < b.N; i++ {
				c.Send(r, 1, 1, data.Synthetic(4096))
			}
		case 1:
			for i := 0; i < b.N; i++ {
				c.Recv(r, 0, 1)
			}
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkMicroAllgather measures a 256-rank allgather through the
// binomial gather + broadcast path.
func BenchmarkMicroAllgather(b *testing.B) {
	k := sim.NewKernel()
	m := machine.MustNew(k, xrand.New(1), machine.Intrepid(256))
	w := mpi.NewWorld(m, mpi.DefaultConfig())
	b.ResetTimer()
	err := w.Run(func(c *mpi.Comm, r *mpi.Rank) {
		for i := 0; i < b.N; i++ {
			c.AllgatherInt64(r, int64(r.ID()))
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkMicroGPFSWrite measures the full storage path (funnel, tokens,
// stream, Ethernet, striped commit) for a 4 MiB write.
func BenchmarkMicroGPFSWrite(b *testing.B) {
	k := sim.NewKernel()
	m := machine.MustNew(k, xrand.New(1), machine.Intrepid(256))
	fs, err := storage.NewGPFS(m, storage.DefaultGPFS())
	if err != nil {
		b.Fatal(err)
	}
	k.Go("w", func(p *sim.Proc) {
		h, err := fs.Create(p, 0, "bench")
		if err != nil {
			b.Error(err)
			return
		}
		for i := 0; i < b.N; i++ {
			if err := h.WriteAt(p, 0, int64(i)*4<<20, data.Synthetic(4<<20)); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(4 << 20)
}

// BenchmarkStorageCommitPath measures the shared storage core's unified
// write path (funnel, metadata/lock/data policy hooks, striped commit) under
// each backend's policy composition: 4 MiB sequential writes on a 256-rank
// partition, the same op for all three arms so the ns/op difference is the
// policies'. The bbuf arm gets an unbounded buffer so it stays on the
// absorption path instead of flipping to spill when the background drain
// falls behind the writer.
func BenchmarkStorageCommitPath(b *testing.B) {
	arms := []struct {
		name  string
		mount func(m *machine.Machine) (fsys.System, error)
	}{
		{"gpfs", func(m *machine.Machine) (fsys.System, error) { return storage.NewGPFS(m, storage.DefaultGPFS()) }},
		{"pvfs", func(m *machine.Machine) (fsys.System, error) { return storage.NewPVFS(m, storage.DefaultPVFS()) }},
		{"bbuf", func(m *machine.Machine) (fsys.System, error) {
			cfg := bbuf.DefaultConfig()
			cfg.BufferPerION = 1 << 62
			return bbuf.New(m, cfg)
		}},
	}
	for _, arm := range arms {
		b.Run(arm.name, func(b *testing.B) {
			k := sim.NewKernel()
			m := machine.MustNew(k, xrand.New(1), machine.Intrepid(256))
			fs, err := arm.mount(m)
			if err != nil {
				b.Fatal(err)
			}
			k.Go("w", func(p *sim.Proc) {
				h, err := fs.Create(p, 0, "bench")
				if err != nil {
					b.Error(err)
					return
				}
				for i := 0; i < b.N; i++ {
					if err := h.WriteAt(p, 0, int64(i)*4<<20, data.Synthetic(4<<20)); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.ReportAllocs()
			b.ResetTimer()
			if err := k.Run(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			b.SetBytes(4 << 20)
		})
	}
}

// BenchmarkMicroHeaderMarshal measures checkpoint header encode+decode for
// a 1024-chunk file.
func BenchmarkMicroHeaderMarshal(b *testing.B) {
	h := &cemfmt.Header{App: "NekCEM", Step: 7, Fields: nekcem.FieldNames}
	for i := 0; i < 1024; i++ {
		h.ChunkBytes = append(h.ChunkBytes, 1<<20)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc := h.Marshal()
		if _, err := cemfmt.Unmarshal(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMicroSEDGAdvance measures the real spectral-element kernel: one
// RK step of 4 order-7 elements.
func BenchmarkMicroSEDGAdvance(b *testing.B) {
	st := nekcem.NewState(nekcem.Mesh{E: 4, N: 7}, 0, 1)
	st.InitWaveguide()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Advance(1e-4)
	}
}

// BenchmarkMicroCheckpointStep measures one full coordinated rbIO
// checkpoint at 1024 ranks (simulation throughput, not simulated time).
func BenchmarkMicroCheckpointStep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		k := sim.NewKernel()
		m := machine.MustNew(k, xrand.New(1), machine.Intrepid(1024))
		fs, err := storage.NewGPFS(m, storage.DefaultGPFS())
		if err != nil {
			b.Fatal(err)
		}
		w := mpi.NewWorld(m, mpi.DefaultConfig())
		_, err = nekcem.Run(w, fs, nekcem.RunConfig{
			Mesh: nekcem.PaperMesh(1024), Strategy: ckpt.DefaultRbIO(), Dir: "ckpt",
			Steps: 1, CheckpointEvery: 1, Synthetic: true, SkipPresetup: true,
			PayloadFactor: nekcem.PaperPayloadFactor, Compute: nekcem.DefaultComputeModel(),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMicroCollectiveWrite measures a 256-rank MPI-IO collective write
// through the two-phase machinery.
func BenchmarkMicroCollectiveWrite(b *testing.B) {
	k := sim.NewKernel()
	m := machine.MustNew(k, xrand.New(1), machine.Intrepid(256))
	fs, err := storage.NewGPFS(m, storage.DefaultGPFS())
	if err != nil {
		b.Fatal(err)
	}
	w := mpi.NewWorld(m, mpi.DefaultConfig())
	b.ResetTimer()
	err = w.Run(func(c *mpi.Comm, r *mpi.Rank) {
		f, err := mpiio.Open(c, r, fs, "cw", true, mpiio.DefaultHints())
		if err != nil {
			b.Error(err)
			return
		}
		for i := 0; i < b.N; i++ {
			base := int64(i) * 256 * 65536
			if err := f.WriteAtAll(r, base+int64(c.Rank(r))*65536, data.Synthetic(65536)); err != nil {
				b.Error(err)
				return
			}
		}
		f.Close(r)
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCkptStorm measures the multi-tenant interference experiment:
// two 1024-rank tenants sweeping alone/staggered/colliding arms across all
// three strategy families on one shared machine, noise off so the measured
// slowdown is pure endogenous contention. Besides the wall-clock cost, the
// report records the experiment's headline physics — the worst colliding
// penalty and its staggered recovery — so a regression in either the
// scheduler or the shared-storage path shows up in the reported metrics.
func BenchmarkCkptStorm(b *testing.B) {
	o := opts()
	o.Quiet = true
	perf.TuneGC()
	var r *exp.CkptStormResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		r, err = exp.CkptStorm(o, 1024, 2)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	worst := r.WorstColliding()
	b.ReportMetric(worst.CollidingPenalty, "worst-colliding-x")
	b.ReportMetric(worst.StaggeredPenalty, "worst-staggered-x")
	b.ReportMetric(float64(r.Capacity), "capacity-ranks")
}

// BenchmarkAsyncFrontier records the asynchronous checkpoint frontier at
// 2048 ranks: the blocked-time collapse against the best sync arm, the
// background flush tail, and the staleness price under injected kills.
func BenchmarkAsyncFrontier(b *testing.B) {
	perf.TuneGC()
	var rows []exp.AsyncFrontierRow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = exp.AsyncFrontier(opts(), 2048, 6, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	report(b, "AsyncFrontier: blocked time vs makespan vs staleness @2048", table.Of(rows))
	var asyncBlocked, bestSync, flushTail, asyncStale, syncStale float64
	bestSync = 1e18
	for _, r := range rows {
		if r.Strategy == "async" {
			asyncBlocked = r.BlockedSec
			flushTail = r.FlushSec
			asyncStale = r.AvgStaleSec
		} else {
			if r.BlockedSec < bestSync {
				bestSync = r.BlockedSec
			}
			if r.AvgStaleSec > syncStale {
				syncStale = r.AvgStaleSec
			}
		}
	}
	blockedWin := 0.0
	if asyncBlocked > 0 {
		blockedWin = bestSync / asyncBlocked
	}
	b.ReportMetric(asyncBlocked, "async-blocked-s")
	b.ReportMetric(bestSync, "best-sync-blocked-s")
	b.ReportMetric(blockedWin, "blocked-win-x")
	b.ReportMetric(flushTail, "flush-tail-s")
	b.ReportMetric(asyncStale, "async-stale-s")
	b.ReportMetric(syncStale, "sync-stale-s")
}

// BenchmarkBBFleet records the burst-buffer fleet sizing study at 2048
// ranks: the full-fleet writer win over the synchronous reference, the
// undersized-FIFO degradation the deadline policy buys back, and the
// drain-tail price it charges.
func BenchmarkBBFleet(b *testing.B) {
	perf.TuneGC()
	var res *exp.BBSizeResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		res, err = exp.BBSize(opts(), 2048, 6)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	report(b, "BB fleet sizing: size x drain policy x pset ratio @2048", res.Table())
	report(b, "BB fleet sizing: faulted arm", res.FaultTable())
	// Pull the headline cells from the default-ratio rbIO rows: the sync
	// reference, the full private-shape fleet, and the worst undersized
	// fleet under each policy.
	var syncWriter, fullWriter, worstFIFO, worstDeadline, deadlineTail float64
	for _, r := range res.Rows {
		if r.Strategy != "rbio" || r.Ratio != res.Rows[len(res.Rows)-1].Ratio {
			continue
		}
		switch {
		case r.Fleet == 0:
			syncWriter = r.WriterSec
		case int(r.Fleet) == r.Psets:
			fullWriter = r.WriterSec
		case r.Drain == "fifo" && r.WriterSec > worstFIFO:
			worstFIFO = r.WriterSec
		case r.Drain == "deadline":
			if r.WriterSec > worstDeadline {
				worstDeadline = r.WriterSec
			}
			if r.DrainTailSec > deadlineTail {
				deadlineTail = r.DrainTailSec
			}
		}
	}
	writerWin := 0.0
	if fullWriter > 0 {
		writerWin = syncWriter / fullWriter
	}
	b.ReportMetric(syncWriter, "sync-writer-s")
	b.ReportMetric(fullWriter, "full-fleet-writer-s")
	b.ReportMetric(writerWin, "writer-win-x")
	b.ReportMetric(worstFIFO, "worst-fifo-writer-s")
	b.ReportMetric(worstDeadline, "worst-deadline-writer-s")
	b.ReportMetric(deadlineTail, "deadline-tail-s")
}
