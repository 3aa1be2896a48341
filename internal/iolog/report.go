package iolog

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// OpStats summarizes one operation type, Darshan-counter style.
type OpStats struct {
	Op       Op
	Count    int
	Bytes    int64
	TotalSec float64
	MinSec   float64
	MaxSec   float64
	AvgSec   float64
}

// Report is a Darshan-like aggregate view of a log.
type Report struct {
	Ranks   int
	PerOp   []OpStats // only ops that occurred, in Op order
	Summary Summary
}

// BuildReport computes per-op counters over the log.
func (l *Log) BuildReport() *Report {
	rep := &Report{Summary: l.Summarize()}
	var agg [numOps]OpStats
	for i := range agg {
		agg[i].Op = Op(i)
		agg[i].MinSec = math.Inf(1)
	}
	for _, r := range l.Records {
		a := &agg[r.Op]
		dur := r.End - r.Start
		a.Count++
		a.Bytes += r.Bytes
		a.TotalSec += dur
		if dur < a.MinSec {
			a.MinSec = dur
		}
		if dur > a.MaxSec {
			a.MaxSec = dur
		}
	}
	rep.Ranks = l.Ranks()
	for _, a := range agg {
		if a.Count == 0 {
			continue
		}
		a.AvgSec = a.TotalSec / float64(a.Count)
		rep.PerOp = append(rep.PerOp, a)
	}
	return rep
}

// String renders the report as a counter table.
func (rep *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ranks: %d  ops: %d  written: %.2f GB  read: %.2f GB  span: [%.2f, %.2f] s\n",
		rep.Ranks, rep.Summary.Ops,
		float64(rep.Summary.BytesWritten)/1e9, float64(rep.Summary.BytesRead)/1e9,
		rep.Summary.FirstStart, rep.Summary.LastEnd)
	fmt.Fprintf(&b, "%-10s %10s %14s %12s %12s %12s\n", "op", "count", "bytes", "min (s)", "avg (s)", "max (s)")
	for _, a := range rep.PerOp {
		fmt.Fprintf(&b, "%-10s %10d %14d %12.6f %12.6f %12.6f\n",
			a.Op, a.Count, a.Bytes, a.MinSec, a.AvgSec, a.MaxSec)
	}
	return b.String()
}

// Scatter renders a per-rank value vector as an ASCII density plot, the
// textual analogue of the paper's Figures 9-11: rank on the x axis, value
// on the y axis, one glyph per cell graded by how many ranks land there.
func Scatter(values []float64, width, height int) string {
	if len(values) == 0 || width < 2 || height < 2 {
		return ""
	}
	maxV := 0.0
	for _, v := range values {
		if v > maxV {
			maxV = v
		}
	}
	if maxV <= 0 {
		maxV = 1
	}
	grid := make([][]int, height)
	for i := range grid {
		grid[i] = make([]int, width)
	}
	for i, v := range values {
		x := i * width / len(values)
		y := int(v / maxV * float64(height-1))
		if y >= height {
			y = height - 1
		}
		grid[height-1-y][x]++
	}
	glyphs := []byte{' ', '.', ':', '+', 'x', 'X', '#'}
	var b strings.Builder
	for row, cells := range grid {
		// Left axis label: the value at this row's center.
		val := maxV * float64(height-row) / float64(height)
		fmt.Fprintf(&b, "%8.2f |", val)
		for _, c := range cells {
			g := 0
			if c > 0 {
				g = 1 + int(math.Log2(float64(c)))
				if g >= len(glyphs) {
					g = len(glyphs) - 1
				}
			}
			b.WriteByte(glyphs[g])
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%8s +%s\n", "", strings.Repeat("-", width))
	fmt.Fprintf(&b, "%8s  rank 0 .. %d  (glyph ~ log2 ranks per cell)\n", "", len(values)-1)
	return b.String()
}

// Percentile returns the q-th percentile (0..1) of values.
func Percentile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}
