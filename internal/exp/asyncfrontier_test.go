package exp

import (
	"strings"
	"testing"

	"repro/internal/table"
)

// frontierAt renders the frontier table at a reduced scale with the given
// worker-pool and shard settings.
func frontierAt(t *testing.T, parallel, shards int) ([]AsyncFrontierRow, string) {
	t.Helper()
	rows, err := AsyncFrontier(Options{Seed: 1, Parallel: parallel, Shards: shards}, 512, 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	return rows, table.Of(rows)
}

// TestAsyncFrontierBlockedTimeWin is the experiment's acceptance check: the
// async arm must block the solver far less than the best synchronous arm,
// pay for it with a real background flush tail, and carry its deferred
// durability into worse staleness bookkeeping (its step time to durability
// is not shorter than its blocked time says).
func TestAsyncFrontierBlockedTimeWin(t *testing.T) {
	rows, _ := frontierAt(t, 4, 0)
	byName := map[string]AsyncFrontierRow{}
	for _, r := range rows {
		byName[r.Strategy] = r
	}
	async, ok := byName["async"]
	if !ok {
		t.Fatal("no async row")
	}
	bestSync := 1e18
	for _, name := range frontierNames {
		if name == "async" {
			continue
		}
		r, ok := byName[name]
		if !ok {
			t.Fatalf("no %s row", name)
		}
		if r.BlockedSec < bestSync {
			bestSync = r.BlockedSec
		}
		if r.FlushSec != 0 {
			t.Errorf("sync arm %s reports a background flush tail %v", name, r.FlushSec)
		}
	}
	if async.BlockedSec*10 > bestSync {
		t.Fatalf("async blocked %.3fs, not << best sync %.3fs", async.BlockedSec, bestSync)
	}
	if async.FlushSec <= 0 {
		t.Fatal("async arm reports no background flush tail")
	}
	if async.StepSec < async.FlushSec {
		t.Errorf("async step-to-durable %.2fs below its own flush tail %.2fs", async.StepSec, async.FlushSec)
	}
	if async.Kills == 0 || async.AvgStaleSec <= 0 {
		t.Errorf("faulted phase probed no staleness: %+v", async)
	}
}

// TestAsyncFrontierDeterministicAcrossWorkers pins reproducibility over the
// two concurrency axes: the worker pool that fans the cells out and the
// partitioned kernel inside each simulation.
func TestAsyncFrontierDeterministicAcrossWorkers(t *testing.T) {
	_, ref := frontierAt(t, 1, 0)
	if _, got := frontierAt(t, 4, 0); got != ref {
		t.Errorf("4-worker pool differs:\n%s\nvs\n%s", got, ref)
	}
	if _, got := frontierAt(t, 4, 4); got != ref {
		t.Errorf("4-shard kernel differs:\n%s\nvs\n%s", got, ref)
	}
}

// TestAsyncFrontierTableShape pins the rendered arms and header.
func TestAsyncFrontierTableShape(t *testing.T) {
	_, table := frontierAt(t, 4, 0)
	for _, want := range []string{"blocked (s)", "max stale (s)", "rbio", "coio", "async"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
}
