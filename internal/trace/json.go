package trace

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
)

// RunTrace couples one run's recorder with its identity for export. Label
// becomes the Perfetto process-name prefix and the metrics label.
type RunTrace struct {
	Label    string
	Makespan float64
	Rec      *Recorder
}

// WriteJSON streams one or more runs as Chrome/Perfetto trace_event JSON
// (the "JSON Object Format": a traceEvents array plus top-level extras —
// ui.perfetto.dev and chrome://tracing both open it directly).
//
// Mapping: each (run, layer) pair is one Perfetto "pid" with a
// process_name metadata record ("label · layer"); the event's Track (rank,
// server, pset) is the "tid"; timestamps are simulated microseconds. A
// top-level "metrics" key carries each run's Metrics snapshot — Perfetto
// ignores unknown top-level keys, so the same file feeds cmd/iolog
// -metrics.
func WriteJSON(w io.Writer, runs []RunTrace) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	bw.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")
	first := true
	emit := func(line string) {
		if !first {
			bw.WriteByte(',')
		}
		first = false
		bw.WriteString(line)
	}
	for ri, run := range runs {
		base := ri * int(NumLayers)
		for l := Layer(0); l < NumLayers; l++ {
			name := l.String()
			if run.Label != "" {
				name = run.Label + " · " + name
			}
			emit(fmt.Sprintf(`{"ph":"M","pid":%d,"name":"process_name","args":{"name":%s}}`,
				base+int(l), strconv.Quote(name)))
			emit(fmt.Sprintf(`{"ph":"M","pid":%d,"name":"process_sort_index","args":{"sort_index":%d}}`,
				base+int(l), base+int(l)))
		}
		for _, ev := range run.Rec.Events() {
			pid := base + int(ev.Layer)
			switch ev.Kind {
			case KindSpan:
				emit(fmt.Sprintf(`{"ph":"X","pid":%d,"tid":%d,"name":%s,"cat":%q,"ts":%s,"dur":%s,"args":{"bytes":%d}}`,
					pid, ev.Track, strconv.Quote(ev.Name), ev.Layer, us(ev.T), us(ev.Dur), int64(ev.Value)))
			case KindInstant:
				emit(fmt.Sprintf(`{"ph":"i","pid":%d,"tid":%d,"name":%s,"cat":%q,"ts":%s,"s":"p"}`,
					pid, ev.Track, strconv.Quote(ev.Name), ev.Layer, us(ev.T)))
			case KindCounter:
				emit(fmt.Sprintf(`{"ph":"C","pid":%d,"tid":%d,"name":%s,"cat":%q,"ts":%s,"args":{"value":%s}}`,
					pid, ev.Track, strconv.Quote(ev.Name), ev.Layer, us(ev.T),
					strconv.FormatFloat(ev.Value, 'g', -1, 64)))
			}
		}
	}
	bw.WriteString("],\"metrics\":")
	metrics := make([]Metrics, 0, len(runs))
	for _, run := range runs {
		metrics = append(metrics, run.Rec.Snapshot(run.Label, run.Makespan))
	}
	enc, err := json.Marshal(metrics)
	if err != nil {
		return err
	}
	bw.Write(enc)
	bw.WriteString("}")
	return bw.Flush()
}

// us renders a simulated time or duration (seconds) as microseconds with
// sub-nanosecond resolution, the unit trace_event timestamps use.
func us(sec float64) string {
	return strconv.FormatFloat(sec*1e6, 'f', 4, 64)
}

// File mirrors the subset of the exported JSON that readers care about.
type File struct {
	TraceEvents []FileEvent `json:"traceEvents"`
	Metrics     []Metrics   `json:"metrics"`
}

// FileEvent is one decoded trace_event record.
type FileEvent struct {
	Ph   string          `json:"ph"`
	Pid  int             `json:"pid"`
	Tid  int             `json:"tid"`
	Name string          `json:"name"`
	Cat  string          `json:"cat,omitempty"`
	Ts   float64         `json:"ts"`
	Dur  float64         `json:"dur,omitempty"`
	S    string          `json:"s,omitempty"`
	Args json.RawMessage `json:"args,omitempty"`
}

// ErrFormat reports a trace ReadFile or Validate rejects: undecodable JSON,
// or a record outside the trace_event schema subset WriteJSON emits.
var ErrFormat = errors.New("trace: malformed trace")

// ReadFile decodes an exported trace, for cmd/iolog and the schema tests.
// Every error it returns is an ErrFormat.
func ReadFile(r io.Reader) (*File, error) {
	var f File
	dec := json.NewDecoder(r)
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("%w: invalid JSON: %w", ErrFormat, err)
	}
	return &f, nil
}

// Validate checks the decoded trace against the trace_event schema subset
// this package emits: every record must carry a known phase, a name, and —
// for spans — a non-negative duration. It returns the number of non-
// metadata events; every error is an ErrFormat.
func (f *File) Validate() (int, error) {
	n := 0
	for i, ev := range f.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name != "process_name" && ev.Name != "process_sort_index" {
				return n, fmt.Errorf("%w: event %d: unknown metadata %q", ErrFormat, i, ev.Name)
			}
			continue
		case "X":
			if ev.Dur < 0 {
				return n, fmt.Errorf("%w: event %d: negative duration", ErrFormat, i)
			}
		case "i":
			if ev.S == "" {
				return n, fmt.Errorf("%w: event %d: instant without scope", ErrFormat, i)
			}
		case "C":
			if len(ev.Args) == 0 {
				return n, fmt.Errorf("%w: event %d: counter without args", ErrFormat, i)
			}
		default:
			return n, fmt.Errorf("%w: event %d: unknown phase %q", ErrFormat, i, ev.Ph)
		}
		if ev.Name == "" {
			return n, fmt.Errorf("%w: event %d: missing name", ErrFormat, i)
		}
		if ev.Ts < 0 {
			return n, fmt.Errorf("%w: event %d: negative timestamp", ErrFormat, i)
		}
		n++
	}
	return n, nil
}
