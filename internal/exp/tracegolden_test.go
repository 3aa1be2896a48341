package exp

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/fault"
)

// TestTraceGolden pins what tracing records, not only what a run prints:
// for every traced run it hashes the retained timeline (layer, kind,
// track, name, start, duration and value of each event, floats to the bit)
// and the run's trace.Metrics JSON (attributed time per layer, counters,
// span aggregates). The runs cover the three backends under every arm
// (fscompare at np=2048 seed 3), the Figure 5 arms at np=1024, one async
// checkpoint, one faulted recovery lifecycle with restore reads, and one
// faulted rbIO step whose receives time out: group 0's writer (node 0)
// dies, and node 2 is down when its ranks enter the step (about 0.25 s)
// but back before the re-elected writer, which first waits out a
// detection window, looks for their chunks. Regenerate with
// UPDATE_GOLDEN=1.
func TestTraceGolden(t *testing.T) {
	var out strings.Builder
	section := func(name string, run func(tc *TraceCollector) error) *TraceCollector {
		t.Helper()
		tc := &TraceCollector{}
		if err := run(tc); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, e := range tc.Entries() {
			fmt.Fprintf(&out, "%s %s\n", name, traceDigest(t, e))
		}
		return tc
	}
	section("fscompare", func(tc *TraceCollector) error {
		_, err := FSComparison(Options{Seed: 3, NPs: []int{2048}, Trace: tc}, 2048)
		return err
	})
	section("fig5", func(tc *TraceCollector) error {
		_, err := Headline(Options{NPs: []int{1024}, Trace: tc})
		return err
	})
	section("async", func(tc *TraceCollector) error {
		_, err := runCheckpoint(Options{Seed: 1, Trace: tc}, Job{NP: 512, Strategy: ckpt.DefaultAsync()})
		return err
	})
	section("recovery", func(tc *TraceCollector) error {
		fam := recoveryFamilies(256)[2] // rbIO
		c, err := runRecoveryCell(Options{Seed: 1, Trace: tc}, 256, fam, 24, 6, &FaultSpec{
			MTBF: 3600, MTTR: 60, Shape: 1.2, Horizon: 600, Seed: 5,
		}, "recovery/rbio")
		if err == nil && c.res.Rollbacks == 0 {
			return fmt.Errorf("lifecycle rolled back 0 times; the case should restore")
		}
		return err
	})
	faulted := section("fault", func(tc *TraceCollector) error {
		_, err := runCheckpoint(Options{Seed: 1, Trace: tc}, Job{NP: 256, Strategy: DefaultRbIOWithGroup(64),
			Faults: &FaultSpec{Seed: 7, Schedule: fault.Schedule{
				{Time: 1e-9, Class: fault.Node, Index: 0, Kind: fault.Fail},
				{Time: 1e-9, Class: fault.Node, Index: 2, Kind: fault.Fail},
				{Time: 0.75, Class: fault.Node, Index: 2, Kind: fault.Restore},
			}}})
		return err
	})
	timeouts := uint64(0)
	for _, m := range faulted.Metrics() {
		for _, s := range m.Spans {
			if s.Name == "mpi.recv.timeout" {
				timeouts += s.Count
			}
		}
	}
	if timeouts == 0 {
		t.Error("faulted rbIO run recorded no mpi.recv.timeout span; the writer should give up on node 2's ranks")
	}
	checkGolden(t, "trace.golden", out.String())
}

// traceDigest is one traced run's line: its label, retained event count,
// timeline hash and metrics hash.
func traceDigest(t *testing.T, e TraceEntry) string {
	t.Helper()
	tl := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		tl.Write(b[:])
	}
	events := e.Rec.Events()
	for _, ev := range events {
		put(uint64(ev.Layer))
		put(uint64(ev.Kind))
		put(uint64(ev.Track))
		tl.Write([]byte(ev.Name))
		put(math.Float64bits(ev.T))
		put(math.Float64bits(ev.Dur))
		put(math.Float64bits(ev.Value))
	}
	js, err := json.Marshal(e.Rec.Snapshot(runLabel(e), e.Makespan))
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%s: events=%d timeline=%.16x metrics=%.16x",
		runLabel(e), len(events), tl.Sum(nil), sha256.Sum256(js))
}
