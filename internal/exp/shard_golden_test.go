package exp

import (
	"runtime"
	"testing"

	"repro/internal/table"
)

// shardedFig5 renders the Figure 5 table at np with the given in-simulation
// shard count and experiment worker-pool size.
func shardedFig5(t *testing.T, np int, seed uint64, shards, parallel int) string {
	t.Helper()
	rows, err := Headline(Options{Seed: seed, NPs: []int{np}, Shards: shards, Parallel: parallel})
	if err != nil {
		t.Fatal(err)
	}
	return Fig5Table(rows)
}

// TestFig5ShardedEquivalence is the partitioned kernel's headline
// correctness contract: the full Figure 5 table — all five I/O approaches,
// every simulated number serialized — must be byte-identical between the
// serial kernel (-shards 1) and the partitioned kernel at several shard
// counts, at multiple scales and seeds, across experiment worker-pool
// sizes, and under GOMAXPROCS=1. Cross-partition equal-timestamp ties are
// resolved by the origin-chain order (sim/chain.go), which reconstructs the
// serial kernel's insertion order exactly; this golden pins that claim.
func TestFig5ShardedEquivalence(t *testing.T) {
	nps := []int{2048, 4096}
	if testing.Short() {
		nps = []int{2048}
	}
	for _, np := range nps {
		for _, seed := range []uint64{1, 3} {
			ref := shardedFig5(t, np, seed, 1, 1)
			for _, shards := range []int{4, 8} {
				if got := shardedFig5(t, np, seed, shards, 1); got != ref {
					t.Errorf("np=%d seed=%d shards=%d differs from serial:\n%s\nvs\n%s",
						np, seed, shards, got, ref)
				}
			}
			if got := shardedFig5(t, np, seed, 4, 4); got != ref {
				t.Errorf("np=%d seed=%d shards=4 parallel=4 differs from serial:\n%s\nvs\n%s",
					np, seed, got, ref)
			}
		}
	}

	// Lane workers beyond GOMAXPROCS must not change dispatch order: the
	// conservative windows fix the eligible event set before any lane runs.
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	ref := shardedFig5(t, 2048, 1, 1, 1)
	if got := shardedFig5(t, 2048, 1, 8, 1); got != ref {
		t.Errorf("GOMAXPROCS=1 shards=8 differs from serial:\n%s\nvs\n%s", got, ref)
	}
}

// shardedFSCompare renders the backend-comparison table at np with the
// given shard count.
func shardedFSCompare(t *testing.T, np int, seed uint64, shards int) string {
	t.Helper()
	rows, err := FSComparison(Options{Seed: seed, NPs: []int{np}, Shards: shards, Parallel: 1}, np)
	if err != nil {
		t.Fatal(err)
	}
	return table.Of(rows)
}

// TestFSCompareShardedEquivalence extends the sharded-equivalence golden to
// the three storage backends (GPFS, PVFS, burst buffer): the partitioned
// kernel must leave every backend's simulated numbers untouched.
func TestFSCompareShardedEquivalence(t *testing.T) {
	nps := []int{2048, 4096}
	if testing.Short() {
		nps = []int{2048}
	}
	for _, np := range nps {
		for _, seed := range []uint64{1, 3} {
			ref := shardedFSCompare(t, np, seed, 1)
			for _, shards := range []int{4, 8} {
				if got := shardedFSCompare(t, np, seed, shards); got != ref {
					t.Errorf("np=%d seed=%d shards=%d differs from serial:\n%s\nvs\n%s",
						np, seed, shards, got, ref)
				}
			}
		}
	}
}
