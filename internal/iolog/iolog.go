// Package iolog is the simulation's Darshan: it records per-rank I/O
// activity during a checkpoint step and produces the analyses the paper
// plots — per-rank I/O time distributions (Figures 9-11) and write-activity
// timelines (Figure 12).
//
// Records are appended by rank code running under the simulation kernel's
// strict handoff, so no locking is needed; analysis happens after the run.
package iolog

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
)

// ErrFormat reports a log ReadJSON rejects: undecodable JSON, or a record
// no run writes (see Record.check).
var ErrFormat = errors.New("iolog: malformed log")

// ErrRange reports an analysis parameter out of range: a rank count
// outside [0, MaxRanks], or a bin width that is not a positive finite
// number or that would cut the timeline into more than MaxBins bins.
var ErrRange = errors.New("iolog: parameter out of range")

const (
	// MaxRanks bounds a log's ranks: four times the largest run the
	// simulator targets (2^20 ranks), and a 32 MB per-rank time vector.
	MaxRanks = 1 << 22
	// MaxBins bounds an activity timeline's bins: 2^16 bins are nine hours
	// at the default half second.
	MaxBins = 1 << 16
)

// Op classifies a logged operation.
type Op int

// Operation kinds.
const (
	OpCreate Op = iota
	OpOpen
	OpWrite
	OpRead
	OpClose
	OpSend // worker shipping data to its rbIO writer
	OpRecv // writer receiving worker data
	OpExchange
	numOps
)

var opNames = [numOps]string{"create", "open", "write", "read", "close", "send", "recv", "exchange"}

func (o Op) String() string {
	if o < 0 || o >= numOps {
		return fmt.Sprintf("Op(%d)", int(o))
	}
	return opNames[o]
}

// MarshalJSON encodes the op as its name.
func (o Op) MarshalJSON() ([]byte, error) { return json.Marshal(o.String()) }

// UnmarshalJSON decodes an op name.
func (o *Op) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for i, n := range opNames {
		if n == s {
			*o = Op(i)
			return nil
		}
	}
	return fmt.Errorf("iolog: unknown op %q", s)
}

// Record is one logged operation.
type Record struct {
	Rank  int     `json:"rank"`
	Op    Op      `json:"op"`
	Start float64 `json:"start"`
	End   float64 `json:"end"`
	Bytes int64   `json:"bytes,omitempty"`
}

// check returns why no run could have logged r, nil when one could: its
// rank lies in [0, MaxRanks), its times are finite, non-negative and
// ordered, and its byte count is non-negative.
func (r Record) check() error {
	switch {
	case r.Rank < 0 || r.Rank >= MaxRanks:
		return fmt.Errorf("rank %d outside [0, %d)", r.Rank, MaxRanks)
	case math.IsInf(r.Start, 0) || math.IsNaN(r.Start) || math.IsInf(r.End, 0) || math.IsNaN(r.End):
		return fmt.Errorf("non-finite time [%v, %v]", r.Start, r.End)
	case r.Start < 0:
		return fmt.Errorf("negative start %v", r.Start)
	case r.End < r.Start:
		return fmt.Errorf("end %v before start %v", r.End, r.Start)
	case r.Bytes < 0:
		return fmt.Errorf("negative bytes %d", r.Bytes)
	}
	return nil
}

// Log accumulates records for one experiment.
type Log struct {
	Records []Record `json:"records"`
}

// Add appends a record.
func (l *Log) Add(rec Record) {
	if l == nil {
		return
	}
	l.Records = append(l.Records, rec)
}

// Len returns the number of records.
func (l *Log) Len() int {
	if l == nil {
		return 0
	}
	return len(l.Records)
}

// Ranks returns one past the highest rank logged: the rank count of the
// run that wrote the log.
func (l *Log) Ranks() int {
	n := 0
	for _, r := range l.Records {
		n = max(n, r.Rank+1)
	}
	return n
}

// PerRankTime returns each rank's total logged time (seconds), indexed by
// rank, counting only the given ops (all ops if none given). This is the
// quantity scattered in the paper's Figures 9-11. A rank count outside
// [0, MaxRanks] is an ErrRange error.
func (l *Log) PerRankTime(ranks int, ops ...Op) ([]float64, error) {
	if ranks < 0 || ranks > MaxRanks {
		return nil, fmt.Errorf("%w: %d ranks, want [0, %d]", ErrRange, ranks, MaxRanks)
	}
	want := opSet(ops)
	out := make([]float64, ranks)
	for _, r := range l.Records {
		if r.Rank < 0 || r.Rank >= ranks || !want[r.Op] {
			continue
		}
		out[r.Rank] += r.End - r.Start
	}
	return out, nil
}

func opSet(ops []Op) [numOps]bool {
	var want [numOps]bool
	if len(ops) == 0 {
		for i := range want {
			want[i] = true
		}
		return want
	}
	for _, o := range ops {
		want[o] = true
	}
	return want
}

// ActivityBin is one time bin of the write-activity timeline.
type ActivityBin struct {
	T       float64 // bin start time
	Writers int     // ranks with an active matching op during the bin
	Bytes   int64   // bytes attributed to the bin (proportional slicing)
}

// Activity produces a Figure-12-style timeline: for each bin of width dt,
// how many ranks were actively performing the given ops and how many bytes
// moved. The timeline spans the records' full time range. A dt that is not
// a positive finite number, or that needs more than MaxBins bins, is an
// ErrRange error.
func (l *Log) Activity(dt float64, ops ...Op) ([]ActivityBin, error) {
	if !(dt > 0) || math.IsInf(dt, 1) {
		return nil, fmt.Errorf("%w: bin width %v s, want a positive finite number", ErrRange, dt)
	}
	want := opSet(ops)
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, r := range l.Records {
		if !want[r.Op] {
			continue
		}
		if r.Start < lo {
			lo = r.Start
		}
		if r.End > hi {
			hi = r.End
		}
	}
	if hi <= lo {
		return nil, nil
	}
	if (hi-lo)/dt >= MaxBins {
		return nil, fmt.Errorf("%w: span %v s at %v s bins needs more than %d bins", ErrRange, hi-lo, dt, MaxBins)
	}
	n := int((hi-lo)/dt) + 1
	bins := make([]ActivityBin, n)
	counts := make([]map[int]bool, n)
	for i := range bins {
		bins[i].T = lo + float64(i)*dt
		counts[i] = make(map[int]bool)
	}
	for _, r := range l.Records {
		if !want[r.Op] || r.End <= r.Start {
			continue
		}
		first := int((r.Start - lo) / dt)
		last := int((r.End - lo) / dt)
		if last >= n {
			last = n - 1
		}
		for b := first; b <= last; b++ {
			counts[b][r.Rank] = true
			// Attribute bytes proportionally to bin overlap.
			bLo, bHi := bins[b].T, bins[b].T+dt
			ovl := minf(r.End, bHi) - maxf(r.Start, bLo)
			bins[b].Bytes += int64(float64(r.Bytes) * ovl / (r.End - r.Start))
		}
	}
	for i := range bins {
		bins[i].Writers = len(counts[i])
	}
	return bins, nil
}

// Summary aggregates a log.
type Summary struct {
	Ops          int
	BytesWritten int64
	BytesRead    int64
	FirstStart   float64
	LastEnd      float64
	// Bandwidth is bytes written divided by the wall-clock span of write
	// activity — the paper's bandwidth definition.
	Bandwidth float64
}

// Summarize computes aggregate statistics over the write ops.
func (l *Log) Summarize() Summary {
	s := Summary{FirstStart: -1}
	for _, r := range l.Records {
		s.Ops++
		switch r.Op {
		case OpWrite:
			s.BytesWritten += r.Bytes
		case OpRead:
			s.BytesRead += r.Bytes
		}
		if s.FirstStart < 0 || r.Start < s.FirstStart {
			s.FirstStart = r.Start
		}
		if r.End > s.LastEnd {
			s.LastEnd = r.End
		}
	}
	if span := s.LastEnd - s.FirstStart; span > 0 {
		s.Bandwidth = float64(s.BytesWritten) / span
	}
	return s
}

// Quantiles returns the q-quantiles (each in [0,1]) of the per-rank times.
func Quantiles(times []float64, qs ...float64) []float64 {
	if len(times) == 0 {
		return make([]float64, len(qs))
	}
	sorted := append([]float64(nil), times...)
	sort.Float64s(sorted)
	out := make([]float64, len(qs))
	for i, q := range qs {
		idx := int(q * float64(len(sorted)-1))
		out[i] = sorted[idx]
	}
	return out
}

// WriteJSON serializes the log.
func (l *Log) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(l)
}

// ReadJSON deserializes a log. Undecodable input and a record no run could
// have logged are ErrFormat errors.
func ReadJSON(r io.Reader) (*Log, error) {
	var l Log
	if err := json.NewDecoder(r).Decode(&l); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrFormat, err)
	}
	for i, rec := range l.Records {
		if err := rec.check(); err != nil {
			return nil, fmt.Errorf("%w: record %d: %v", ErrFormat, i, err)
		}
	}
	return &l, nil
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
