package trace

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/table"
)

// Metrics is the aggregated, serializable view of one run's recorder: the
// per-layer attributed-time split, the counters, and per-(layer, name)
// span statistics with duration histograms. It round-trips through the
// exported trace JSON's top-level "metrics" key, which is how cmd/iolog
// consumes it.
type Metrics struct {
	Label      string        `json:"label,omitempty"`
	Makespan   float64       `json:"makespan"`
	Attributed float64       `json:"attributed"`
	Layers     []LayerTime   `json:"layers"`
	Counters   []CounterStat `json:"counters,omitempty"`
	Spans      []SpanRow     `json:"spans,omitempty"`
	Retained   int           `json:"events_retained"`
	Dropped    uint64        `json:"events_dropped,omitempty"`
}

// LayerTime is one row of the attributed-time split.
type LayerTime struct {
	Layer   string  `json:"layer"`
	Seconds float64 `json:"seconds"`
}

// CounterStat is one aggregate counter's final value.
type CounterStat struct {
	Layer string `json:"layer"`
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// SpanRow is one (layer, name) span aggregate.
type SpanRow struct {
	Layer string   `json:"layer"`
	Name  string   `json:"name"`
	Count uint64   `json:"count"`
	Total float64  `json:"total_sec"`
	Min   float64  `json:"min_sec"`
	Max   float64  `json:"max_sec"`
	Bytes int64    `json:"bytes,omitempty"`
	Hist  []uint64 `json:"hist"`
}

// Snapshot freezes the recorder's aggregates into a Metrics. makespan is
// the run's final simulated time (Kernel.Now() when the run ended); label
// tags the run in combined outputs ("strategy/backend @ np").
func (r *Recorder) Snapshot(label string, makespan float64) Metrics {
	m := Metrics{Label: label, Makespan: makespan}
	if r == nil {
		return m
	}
	m.Attributed = r.AttributedTotal()
	m.Retained = len(r.events)
	m.Dropped = r.dropped
	for l := Layer(0); l < NumLayers; l++ {
		m.Layers = append(m.Layers, LayerTime{Layer: l.String(), Seconds: r.LayerTime(l)})
	}
	for _, k := range sortedKeys(r.counters) {
		m.Counters = append(m.Counters, CounterStat{Layer: k.layer.String(), Name: k.name, Value: r.counters[k]})
	}
	for _, k := range sortedKeys(r.spans) {
		st := r.spans[k]
		m.Spans = append(m.Spans, SpanRow{
			Layer: k.layer.String(), Name: k.name,
			Count: st.Count, Total: st.Total, Min: st.Min, Max: st.Max,
			Bytes: st.Bytes, Hist: append([]uint64(nil), st.Hist[:]...),
		})
	}
	return m
}

// sortedKeys returns m's keys ordered by (layer, name).
func sortedKeys[V any](m map[spanKey]V) []spanKey {
	keys := make([]spanKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].layer != keys[j].layer {
			return keys[i].layer < keys[j].layer
		}
		return keys[i].name < keys[j].name
	})
	return keys
}

// Table renders the metrics as aligned text: the attributed-time split
// (whose total matches the makespan within 1e-9 — that is the recorder's
// accounting contract), the counters, and the span aggregates.
func (m Metrics) Table() string {
	var b strings.Builder
	if m.Label != "" {
		fmt.Fprintf(&b, "-- metrics: %s --\n", m.Label)
	}
	rows := [][]string{}
	for _, lt := range m.Layers {
		share := 0.0
		if m.Makespan > 0 {
			share = 100 * lt.Seconds / m.Makespan
		}
		rows = append(rows, []string{lt.Layer, fmt.Sprintf("%.6f", lt.Seconds), fmt.Sprintf("%5.1f%%", share)})
	}
	rows = append(rows, []string{"total", fmt.Sprintf("%.6f", m.Attributed),
		fmt.Sprintf("makespan %.6f (residual %.2e)", m.Makespan, m.Attributed-m.Makespan)})
	b.WriteString("attributed simulated time per layer:\n")
	b.WriteString(table.Text([]string{"layer", "seconds", "share"}, rows))

	if len(m.Counters) > 0 {
		rows = rows[:0]
		for _, c := range m.Counters {
			rows = append(rows, []string{c.Layer, c.Name, fmt.Sprint(c.Value)})
		}
		b.WriteString("counters:\n")
		b.WriteString(table.Text([]string{"layer", "counter", "value"}, rows))
	}

	if len(m.Spans) > 0 {
		rows = rows[:0]
		for _, s := range m.Spans {
			rows = append(rows, []string{
				s.Layer, s.Name, fmt.Sprint(s.Count),
				fmt.Sprintf("%.6f", s.Total),
				fmt.Sprintf("%.6f", s.Min),
				fmt.Sprintf("%.6f", s.Max),
				fmt.Sprintf("%.3f", float64(s.Bytes)/1e9),
				histString(s.Hist),
			})
		}
		b.WriteString("spans:\n")
		b.WriteString(table.Text([]string{"layer", "span", "count", "total(s)", "min(s)", "max(s)", "GB", "duration histogram"}, rows))
	}

	if m.Dropped > 0 {
		fmt.Fprintf(&b, "timeline capped: %d events retained, %d dropped (aggregates above are complete)\n", m.Retained, m.Dropped)
	}
	return b.String()
}

func histString(h []uint64) string {
	var parts []string
	for i, n := range h {
		if n > 0 {
			parts = append(parts, fmt.Sprintf("%s:%d", HistLabel(i), n))
		}
	}
	return strings.Join(parts, " ")
}
