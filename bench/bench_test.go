package bench

import "testing"

// The expected values are Python's statistics.quantiles(xs, n=4), the rule
// the spread of a benchmark metric is judged by.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3}, 1, 2, 3},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3.1, 0.2, 7.7, 1.5, 2.2}, 0.85, 2.2, 5.4},
		{[]float64{4}, 4, 4, 4},
	}
	for _, c := range cases {
		q1, med, q3 := Quartiles(c.xs)
		if !near(q1, c.q1) || !near(med, c.med) || !near(q3, c.q3) {
			t.Errorf("Quartiles(%v) = %g, %g, %g; want %g, %g, %g", c.xs, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
}

func near(a, b float64) bool { d := a - b; return d < 1e-12 && d > -1e-12 }

func TestGoldensEmbedded(t *testing.T) {
	for _, name := range []string{"fig5-4k", "rbio-16k-sharded", "recovery-256", "bbfleet-2k"} {
		if g, ok := Golden(name); !ok || g == "" {
			t.Errorf("no golden for %s", name)
		}
	}
}
