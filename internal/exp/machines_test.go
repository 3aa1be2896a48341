package exp

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/table"
)

// TestBGLHeadlineSmoke runs the Figure 5 sweep on the Blue Gene/L preset at
// a reduced scale: the slower fabric and halved compute density must still
// produce finite, ordered results, and must not reproduce the Intrepid
// numbers (a regression here would mean -machine silently ignores the
// preset).
func TestBGLHeadlineSmoke(t *testing.T) {
	bgl, err := Headline(Options{Seed: 1, NPs: []int{512}, Machine: "bgl"})
	if err != nil {
		t.Fatal(err)
	}
	if len(bgl) == 0 {
		t.Fatal("no rows")
	}
	for _, r := range bgl {
		if r.NP != 512 {
			t.Fatalf("row np %d, want 512", r.NP)
		}
		if r.GBps <= 0 || r.StepSec <= 0 {
			t.Fatalf("%s: non-positive measurement %+v", r.Approach, r)
		}
	}
	intrepid, err := Headline(Options{Seed: 1, NPs: []int{512}})
	if err != nil {
		t.Fatal(err)
	}
	if Fig5Table(bgl) == Fig5Table(intrepid) {
		t.Fatal("bgl preset produced the Intrepid table verbatim")
	}
}

// TestMapSweepDeterministicAcrossWorkers extends the reproducibility
// regression to the placement sweep: every (policy, strategy) cell is an
// independent simulation, so the printed table must not depend on the
// worker-pool size. It also checks the sweep covers every registered policy.
func TestMapSweepDeterministicAcrossWorkers(t *testing.T) {
	at := func(parallel int) ([]MapRow, string) {
		rows, err := MapSweep(Options{Seed: 1, Parallel: parallel}, 256)
		if err != nil {
			t.Fatal(err)
		}
		return rows, table.Of(rows)
	}
	rows, ref := at(1)
	if _, got := at(4); got != ref {
		t.Errorf("4-worker pool differs:\n%s\nvs\n%s", got, ref)
	}
	seen := map[string]bool{}
	for _, r := range rows {
		seen[r.Policy] = true
		if r.GBps <= 0 {
			t.Errorf("%s/%s: non-positive bandwidth", r.Policy, r.Strategy)
		}
	}
	for _, pol := range machine.PlacementNames() {
		if !seen[pol] {
			t.Errorf("sweep missing policy %q", pol)
		}
	}
}

// TestPsetRatioDeterministicAcrossWorkers does the same for the
// compute:ION ratio sweep, and checks that ratios larger than the partition
// are skipped rather than failing (np=256 has 64 nodes, so 128:1 must be
// absent).
func TestPsetRatioDeterministicAcrossWorkers(t *testing.T) {
	at := func(parallel int) ([]PsetRatioRow, string) {
		rows, err := PsetRatio(Options{Seed: 1, Parallel: parallel}, 256)
		if err != nil {
			t.Fatal(err)
		}
		return rows, table.Of(rows)
	}
	rows, ref := at(1)
	if _, got := at(4); got != ref {
		t.Errorf("4-worker pool differs:\n%s\nvs\n%s", got, ref)
	}
	ratios := map[int]bool{}
	for _, r := range rows {
		ratios[r.NodesPerPset] = true
	}
	for _, want := range []int{16, 32, 64} {
		if !ratios[want] {
			t.Errorf("sweep missing ratio %d:1", want)
		}
	}
	if ratios[128] {
		t.Error("128:1 needs more psets than the 64-node partition has")
	}
}
