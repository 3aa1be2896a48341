package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/bench"
)

var (
	wallM  = bench.Metric{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.1}
	specT  = &bench.Spec{EndToEnd: []bench.Metric{wallM}}
	steady = []float64{1.00, 1.01, 0.99, 1.00, 1.02}
)

func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func TestVerdict(t *testing.T) {
	cases := []struct {
		name     string
		old, cur []float64
		want     string
	}{
		{"regression", steady, scaled(steady, 1.2), worse},
		{"improvement", steady, scaled(steady, 0.8), better},
		{"within bound", steady, scaled(steady, 1.05), unchanged},
		{"unresolved", steady, []float64{0.8, 1.3, 1.0, 1.6, 0.7}, unresolved},
		{"wide but disjoint", []float64{2, 3, 4}, []float64{0.5, 1, 1.5}, better},
	}
	for _, c := range cases {
		got := verdict(wallM, bench.Summarize("s", c.old), bench.Summarize("s", c.cur))
		if got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func result(wall []float64, failed int, events float64) *bench.Result {
	return &bench.Result{Workloads: []bench.WorkloadResult{{
		Name: "w", Attempted: 4, Failed: failed,
		EndToEnd: map[string]bench.Summary{"wall_s": bench.Summarize("s", wall)},
		PerLayer: map[string]bench.Value{
			"sim.events":   {Unit: "count", Value: events, Exact: true},
			"sim.event_ns": {Unit: "ns", Value: events / 1e4},
		},
	}}}
}

func TestReport(t *testing.T) {
	cases := []struct {
		name      string
		cur       *bench.Result
		regressed bool
		says      string
	}{
		{"same", result(steady, 0, 1e6), false, "unchanged"},
		{"regression", result(scaled(steady, 1.3), 0, 1e6), true, worse},
		{"improvement", result(scaled(steady, 0.7), 0, 1e6), false, better},
		{"count drift", result(steady, 0, 1e6+1), true, drift},
		{"more failures", result(steady, 1, 1e6), true, worse},
	}
	for _, c := range cases {
		var out bytes.Buffer
		got := report(&out, specT, result(steady, 0, 1e6), c.cur)
		if got != c.regressed || !strings.Contains(out.String(), c.says) {
			t.Errorf("%s: regressed=%v, want %v; output:\n%s", c.name, got, c.regressed, out.String())
		}
	}
}
