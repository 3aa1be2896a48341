package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/bench"
)

// TestMain lets the test binary serve as perfbench's child process.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		if err := childMain(os.Args[1:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func loadSpec(t *testing.T) *bench.Spec {
	t.Helper()
	spec, err := bench.LoadSpec(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSpecMatchesMetrics pins BENCHMARK.json to what perfbench measures.
func TestSpecMatchesMetrics(t *testing.T) {
	spec := loadSpec(t)
	check := func(kind string, got []bench.Metric, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, perfbench reports %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), perfbench %s (%s)", kind, i, got[i].Name, got[i].Unit, m.name, m.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, perfbench has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, perfbench %q", i, spec.Workloads[i].Name, w.name)
		}
	}
}

func smokeRun(t *testing.T) *bench.Result {
	t.Helper()
	out := filepath.Join(t.TempDir(), "result.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-smoke", "-reps", "1", "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("perfbench -smoke exited %d:\n%s", code, stderr.String())
	}
	r, err := bench.ReadResult(out)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestSmoke runs every workload at np 64-1024 twice: each run must emit
// every metric BENCHMARK.json names, with its unit, and pass its own output
// checks, and the deterministic counts must repeat exactly.
func TestSmoke(t *testing.T) {
	spec := loadSpec(t)
	a, b := smokeRun(t), smokeRun(t)
	if len(a.Workloads) != len(spec.Workloads) {
		t.Fatalf("got %d workloads, want %d", len(a.Workloads), len(spec.Workloads))
	}
	for i, w := range a.Workloads {
		if w.Failed != 0 || w.Attempted == 0 {
			t.Errorf("%s: %d of %d runs failed", w.Name, w.Failed, w.Attempted)
		}
		for _, m := range spec.EndToEnd {
			s, ok := w.EndToEnd[m.Name]
			if !ok || s.Unit != m.Unit || s.N == 0 || s.Median <= 0 {
				t.Errorf("%s: end-to-end %s = %+v, want a positive value in %s", w.Name, m.Name, s, m.Unit)
			}
		}
		for _, m := range spec.PerLayer {
			v, ok := w.PerLayer[m.Name]
			if !ok || v.Unit != m.Unit {
				t.Errorf("%s: per-layer %s missing or not in %s: %+v", w.Name, m.Name, m.Unit, v)
				continue
			}
			if v2 := b.Workloads[i].PerLayer[m.Name]; v.Exact && v.Value != v2.Value {
				t.Errorf("%s: count %s differs across runs: %v vs %v", w.Name, m.Name, v.Value, v2.Value)
			}
		}
		if w.PerLayer["sim.event_ns"].Value <= 0 || w.PerLayer["exp.runs"].Value <= 0 {
			t.Errorf("%s: probes or counts not measured: %+v", w.Name, w.PerLayer)
		}
	}
}

// TestWorkloadLine checks the one-workload mode's last line: one JSON object
// with exactly correct, attempted, failed and metrics.
func TestWorkloadLine(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "fig5-4k", "-smoke", "-reps", "1", "-seed", "3", "-trace", "0"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d:\n%s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var got map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || got["correct"] == nil || got["attempted"] == nil || got["failed"] == nil || got["metrics"] == nil {
		t.Fatalf("keys: %s", lines[len(lines)-1])
	}
	var ms map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	if err := json.Unmarshal(got["metrics"], &ms); err != nil {
		t.Fatal(err)
	}
	for _, m := range endToEnd {
		if v, ok := ms[m.name]; !ok || v.Unit != m.unit || v.Value <= 0 {
			t.Errorf("metric %s = %+v, want a positive value in %s", m.name, v, m.unit)
		}
	}
}

func TestUnknownWorkload(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "nope"}, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
		t.Fatalf("exit %d, stdout %q", code, stdout.String())
	}
}
