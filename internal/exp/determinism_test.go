package exp

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/table"
)

// fig5At renders the Figure 5 table at a reduced scale with the given
// worker-pool size — the full serialization of every simulated number the
// figure prints.
func fig5At(t *testing.T, parallel int) string {
	t.Helper()
	rows, err := Headline(Options{Seed: 1, NPs: []int{512}, Parallel: parallel})
	if err != nil {
		t.Fatal(err)
	}
	return Fig5Table(rows)
}

// TestFig5DeterministicAcrossGOMAXPROCS is the reproducibility regression
// test for the parallel experiment runner: the printed Figure 5 rows must be
// byte-identical run to run, serial versus worker pool, and GOMAXPROCS=1
// versus all CPUs. Each simulation owns its kernel and RNG and the kernel's
// baton protocol keeps exactly one goroutine runnable per simulation, so
// scheduling freedom must never reach the simulated numbers.
func TestFig5DeterministicAcrossGOMAXPROCS(t *testing.T) {
	ref := fig5At(t, 1)

	if got := fig5At(t, 1); got != ref {
		t.Errorf("serial rerun differs:\n%s\nvs\n%s", got, ref)
	}
	if got := fig5At(t, runtime.NumCPU()); got != ref {
		t.Errorf("parallel runner differs:\n%s\nvs\n%s", got, ref)
	}
	if got := fig5At(t, 4); got != ref {
		t.Errorf("4-worker pool differs:\n%s\nvs\n%s", got, ref)
	}

	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	if got := fig5At(t, 1); got != ref {
		t.Errorf("GOMAXPROCS=1 serial differs:\n%s\nvs\n%s", got, ref)
	}
	if got := fig5At(t, 4); got != ref {
		t.Errorf("GOMAXPROCS=1 with 4 workers differs:\n%s\nvs\n%s", got, ref)
	}
}

// fscompareAt renders the three-backend comparison table at a reduced scale
// with the given worker-pool size.
func fscompareAt(t *testing.T, parallel int) string {
	t.Helper()
	rows, err := FSComparison(Options{Seed: 1, NPs: []int{512}, Parallel: parallel}, 512)
	if err != nil {
		t.Fatal(err)
	}
	return table.Of(rows)
}

// TestFSComparisonDeterministicAcrossWorkers extends the reproducibility
// regression to the pvfs and bbuf arms: every cell of the backend
// comparison — including the burst buffer's background drains, which
// schedule kernel callbacks long after the writers return — must print
// byte-identically regardless of the worker-pool size.
func TestFSComparisonDeterministicAcrossWorkers(t *testing.T) {
	ref := fscompareAt(t, 1)
	if got := fscompareAt(t, 1); got != ref {
		t.Errorf("serial rerun differs:\n%s\nvs\n%s", got, ref)
	}
	if got := fscompareAt(t, 4); got != ref {
		t.Errorf("4-worker pool differs:\n%s\nvs\n%s", got, ref)
	}
	if got := fscompareAt(t, runtime.NumCPU()); got != ref {
		t.Errorf("NumCPU pool differs:\n%s\nvs\n%s", got, ref)
	}
}

// TestDrainOverlapDeterministicAcrossWorkers pins the drain-overlap
// experiment the same way: the bbuf arm's drain-tail arithmetic reads the
// buffer tier's counters after the run, which must not depend on pool size.
func TestDrainOverlapDeterministicAcrossWorkers(t *testing.T) {
	at := func(parallel int) string {
		rows, err := DrainOverlap(Options{Seed: 1, NPs: []int{512}, Parallel: parallel}, 512)
		if err != nil {
			t.Fatal(err)
		}
		return table.Of(rows)
	}
	ref := at(1)
	if got := at(4); got != ref {
		t.Errorf("4-worker pool differs:\n%s\nvs\n%s", got, ref)
	}
}

// TestAblationsDeterministicAcrossWorkers pins the ablations experiment
// the same way: its variants fan out over the pool, each on its own
// kernel, so the table must not depend on the pool size.
func TestAblationsDeterministicAcrossWorkers(t *testing.T) {
	at := func(parallel int) string {
		var out strings.Builder
		d, err := Lookup("ablations")
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Run(NewSession(Options{Seed: 1, NPs: []int{512}, Parallel: parallel}, &out)); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	ref := at(1)
	if got := at(4); got != ref {
		t.Errorf("4-worker pool differs:\n%s\nvs\n%s", got, ref)
	}
}
