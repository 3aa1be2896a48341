package exp

import (
	"fmt"
	"strings"
	"testing"
)

// TestSweepGolden pins the real-number tables of the pooled sweeps byte for
// byte: each experiment runs through its registry Run into a Session, so the
// golden holds exactly what iobench prints for it (less the host-cost line).
// tables.golden renders literal rows only; this is where the simulated
// numbers of Figure 8, Table I, the machine-shape sweeps, the asynchronous
// frontier, the fleet sizing, the ablations and the recovery lifecycle are
// pinned. Regenerate with UPDATE_GOLDEN=1.
func TestSweepGolden(t *testing.T) {
	var out strings.Builder
	for _, c := range []struct {
		name        string
		np          int
		work, epoch int // recovery's budget; 0 keeps the session default
	}{
		{name: "fig8", np: 1024},
		{name: "table1", np: 512},
		{name: "mapsweep", np: 512},
		{name: "psetratio", np: 512},
		{name: "asyncfrontier", np: 512},
		{name: "bbsize", np: 512},
		{name: "ablations", np: 512},
		{name: "recovery", np: 256, work: 24, epoch: 4},
	} {
		d, err := Lookup(c.name)
		if err != nil {
			t.Fatal(err)
		}
		s := NewSession(Options{Seed: 1, NPs: []int{c.np}}, &out)
		if c.work > 0 {
			s.Work, s.Epochs = c.work, c.epoch
		}
		fmt.Fprintf(&out, "== %s ==\n", c.name)
		if err := d.Run(s); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
	}
	checkGolden(t, "sweeps.golden", out.String())
}
