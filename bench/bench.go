// Package bench holds what the repository benchmark's two tools share: the
// result-file schema perfbench writes and benchdiff compares, the quartile
// rule both use, the BENCHMARK.json spec that fixes names, units and
// regression bounds, and the committed seed-1 output goldens.
package bench

import (
	"embed"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// Result is one perfbench invocation over one or more workloads.
type Result struct {
	Env       Env              `json:"env"`
	Workloads []WorkloadResult `json:"workloads"`
}

// Env stamps the host a result was measured on; two results compare only
// when these agree.
type Env struct {
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu"`
	When       string `json:"when"`
	Seed       uint64 `json:"seed"`
	Reps       int    `json:"reps"`
}

// WorkloadResult is one workload's measurements. Attempted and Failed count
// simulation runs (every child process); a run fails if it errors or its
// rendered output mismatches the reference.
type WorkloadResult struct {
	Name      string             `json:"name"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	EndToEnd  map[string]Summary `json:"end_to_end"`
	PerLayer  map[string]Value   `json:"per_layer"`
}

// FailRatio is failed runs over attempted runs.
func (w WorkloadResult) FailRatio() float64 {
	if w.Attempted == 0 {
		return 0
	}
	return float64(w.Failed) / float64(w.Attempted)
}

// Summary is an end-to-end metric over a workload's repetitions.
type Summary struct {
	Unit    string    `json:"unit"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples"`
}

// Value is one per-layer metric. Exact marks a deterministic count of the
// simulation (events, messages, simulated seconds): it must repeat bit for
// bit across repetitions and hosts at a fixed seed.
type Value struct {
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	Exact bool    `json:"exact,omitempty"`
}

// Summarize reduces samples to median and quartiles.
func Summarize(unit string, samples []float64) Summary {
	q1, med, q3 := Quartiles(samples)
	return Summary{Unit: unit, Median: med, Q1: q1, Q3: q3, N: len(samples), Samples: samples}
}

// Quartiles returns the first quartile, median and third quartile of xs by
// the exclusive method (Python's statistics.quantiles default), so spreads
// computed here match the ones a Python reader computes from the samples.
// One sample is its own quartiles; none gives zeros.
func Quartiles(xs []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n := len(d)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	if n%2 == 1 {
		med = d[n/2]
	} else {
		med = (d[n/2-1] + d[n/2]) / 2
	}
	return q(1), med, q(3)
}

// Spread is the interquartile distance as a share of the median.
func (s Summary) Spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

// Spec is the part of BENCHMARK.json the tools read: the workloads and the
// metrics with their units, directions and bounds.
type Spec struct {
	Workloads []Workload `json:"workloads"`
	EndToEnd  []Metric   `json:"end_to_end"`
	PerLayer  []Metric   `json:"per_layer"`
}

// Workload names one workload and why it was chosen.
type Workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// Metric is one metric's definition. Bound is the share of the parent's
// median by which an end-to-end metric may worsen before it counts as a
// regression; per-layer metrics carry none.
type Metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// LoadSpec reads a BENCHMARK.json.
func LoadSpec(path string) (*Spec, error) {
	var s Spec
	if err := readJSON(path, &s); err != nil {
		return nil, err
	}
	return &s, nil
}

// ReadResult reads a perfbench result file.
func ReadResult(path string) (*Result, error) {
	var r Result
	if err := readJSON(path, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// WriteResult writes a result file, indented, with a trailing newline.
func WriteResult(path string, r *Result) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("bench: write result: %w", err)
	}
	return nil
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("bench: parse %s: %w", path, err)
	}
	return nil
}

//go:embed testdata/*.golden
var goldens embed.FS

// Golden returns the committed seed-1 rendered output of a workload.
func Golden(workload string) (string, bool) {
	b, err := goldens.ReadFile("testdata/" + workload + ".golden")
	if err != nil {
		return "", false
	}
	return string(b), true
}

// GoldenPath is where Golden's file lives, relative to this module's root.
func GoldenPath(workload string) string { return "testdata/" + workload + ".golden" }
