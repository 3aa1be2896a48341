package iolog

import (
	"fmt"
	"math"
	"strings"
)

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
