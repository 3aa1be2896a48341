package exp

import (
	"runtime"
	"testing"

	"repro/internal/table"
)

// bbsizeOut renders the full bbsize output (fault-free sweep plus the
// faulted arm) at np=512 with the given kernel shard count and experiment
// worker-pool size.
func bbsizeOut(t *testing.T, shards, parallel int) string {
	t.Helper()
	r, err := BBSize(Options{Seed: 1, NPs: []int{512}, Shards: shards, Parallel: parallel}, 512, 6)
	if err != nil {
		t.Fatal(err)
	}
	return r.Table() + r.FaultTable()
}

// TestBBSizeShardedEquivalence is the fleet determinism suite: every bbsize
// row — shared striping, capacity spills, the deadline dispatcher's
// event-driven pumping, the faulted arm's loss accounting — must be
// byte-identical between the serial kernel, the partitioned kernel at
// several shard counts, any experiment worker-pool size, and GOMAXPROCS=1.
// The dispatcher schedules its re-pump events from guarded context and Pick
// is a pure function of the backlog, so no fleet configuration may move a
// single simulated number.
func TestBBSizeShardedEquivalence(t *testing.T) {
	ref := bbsizeOut(t, 1, 1)
	for _, shards := range []int{2, 4} {
		if got := bbsizeOut(t, shards, 1); got != ref {
			t.Errorf("shards=%d differs from serial:\n%s\nvs\n%s", shards, got, ref)
		}
	}
	if got := bbsizeOut(t, 1, 4); got != ref {
		t.Errorf("parallel=4 differs from serial:\n%s\nvs\n%s", got, ref)
	}
	if got := bbsizeOut(t, 4, 4); got != ref {
		t.Errorf("shards=4 parallel=4 differs from serial:\n%s\nvs\n%s", got, ref)
	}

	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	if got := bbsizeOut(t, 4, 1); got != ref {
		t.Errorf("GOMAXPROCS=1 shards=4 differs from serial:\n%s\nvs\n%s", got, ref)
	}
}

// TestFleetPrivateShapeIdentity pins the refactor's backward-compatibility
// contract at the experiment level: explicitly configuring the fleet as
// one-node-per-ION with the FIFO drain policy must reproduce the default
// (legacy) bbuf configuration byte for byte. np=512 has 2 psets, so
// BBNodes=2 is the private shape.
func TestFleetPrivateShapeIdentity(t *testing.T) {
	render := func(o Options) string {
		rows, err := DrainOverlap(o, 512)
		if err != nil {
			t.Fatal(err)
		}
		return table.Of(rows)
	}
	legacy := render(Options{Seed: 1, NPs: []int{512}, Parallel: 1})
	fleet := render(Options{Seed: 1, NPs: []int{512}, Parallel: 1, BBNodes: 2, Drain: "fifo"})
	if legacy != fleet {
		t.Errorf("explicit private fleet differs from the legacy configuration:\n%s\nvs\n%s", fleet, legacy)
	}
}
