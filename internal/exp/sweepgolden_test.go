package exp

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/fsys"
)

// TestSweepGolden pins the real-number tables of the pooled sweeps byte for
// byte: each experiment runs through its registry Run into a Session, so the
// golden holds exactly what iobench prints for it (less the host-cost line).
// tables.golden renders literal rows only; this is where the simulated
// numbers of Figure 8, Table I, the machine-shape sweeps, the asynchronous
// frontier, the fleet sizing, the ablations, the recovery lifecycle and the
// multi-tenant experiments (ckptstorm, restartstorm, the queued workload and
// a bbuf storm under the tenant drain scheduler) are pinned. Regenerate with
// UPDATE_GOLDEN=1.
func TestSweepGolden(t *testing.T) {
	var out strings.Builder
	for _, c := range []struct {
		name        string
		np          int // 0 leaves the experiment's own scale
		work, epoch int // recovery's budget; 0 keeps the session default
		tenants     int // 0 keeps the session default
		fs, drain   string
		bbNodes     int
	}{
		{name: "fig8", np: 1024},
		{name: "table1", np: 512},
		{name: "mapsweep", np: 512},
		{name: "psetratio", np: 512},
		{name: "asyncfrontier", np: 512},
		{name: "bbsize", np: 512},
		{name: "ablations", np: 512},
		{name: "recovery", np: 256, work: 24, epoch: 4},
		{name: "ckptstorm", np: 256, tenants: 2},
		{name: "restartstorm", np: 256},
		{name: "workload"},
		// A shared fleet, so tenants' drains meet on one backlog and the
		// tenant scheduler's order shows in the colliding step times.
		{name: "ckptstorm", np: 1024, tenants: 3, fs: "bbuf", drain: "tenant", bbNodes: 8},
	} {
		d, err := Lookup(c.name)
		if err != nil {
			t.Fatal(err)
		}
		o := Options{Seed: 1, FS: fsys.Backend(c.fs), Drain: c.drain, BBNodes: c.bbNodes}
		if c.np > 0 {
			o.NPs = []int{c.np}
		}
		s := NewSession(o, &out)
		if c.work > 0 {
			s.Work, s.Epochs = c.work, c.epoch
		}
		if c.tenants > 0 {
			s.Tenants = c.tenants
		}
		fmt.Fprintf(&out, "== %s ==\n", c.name)
		if err := d.Run(s); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
	}
	checkGolden(t, "sweeps.golden", out.String())
}
