package exp

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/table"
)

// checkGolden compares got against the committed golden file, rewriting it
// when UPDATE_GOLDEN is set. The fscompare goldens were generated before the
// storage-core refactor, so they enforce the refactor's bit-identical claim
// in CI rather than by eyeball.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// TestFSComparisonGoldenGPFSPVFS pins the gpfs and pvfs arms of the
// fscompare table byte for byte. The golden predates the storage-core
// refactor: any change to these simulated numbers is a fidelity regression,
// not a formatting nit. (It deliberately runs the two-backend subset — the
// table's column widths depend on the rows present, so subsetting the
// three-way table would not reproduce the pre-refactor bytes.)
func TestFSComparisonGoldenGPFSPVFS(t *testing.T) {
	rows, err := FSComparisonOn(Options{Seed: 3, NPs: []int{2048}}, 2048, "gpfs", "pvfs")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fscompare_np2048_seed3.golden", table.Of(rows))
}

// TestFSComparisonGoldenThreeWay pins the full backend comparison — the
// burst-buffer arm included — so the bbuf policy's numbers are regression-
// checked the same way the original backends' are.
func TestFSComparisonGoldenThreeWay(t *testing.T) {
	rows, err := FSComparison(Options{Seed: 3, NPs: []int{2048}}, 2048)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fscompare3_np2048_seed3.golden", table.Of(rows))
}

// TestDrainOverlapGolden pins the drain-overlap experiment's table.
func TestDrainOverlapGolden(t *testing.T) {
	rows, err := DrainOverlap(Options{Seed: 3, NPs: []int{2048}}, 2048)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "drainoverlap_np2048_seed3.golden", table.Of(rows))
}

// TestFaultSweepGolden pins the survivability sweep byte for byte: the
// sampled fault schedules, the retry/failover arithmetic, the fault-aware
// strategy paths and the restart attempts all feed these numbers, so any
// drift in them is a behavior change, not noise.
func TestFaultSweepGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("np-2048 fault sweep in -short mode")
	}
	rows, err := FaultSweep(Options{Seed: 3, NPs: []int{2048}}, 2048, 6)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "faultsweep_np2048_seed3.golden", table.Of(rows))
}

// TestMakespanGolden pins the expected-makespan study (measured C and R
// pushed through the Young/Daly model).
func TestMakespanGolden(t *testing.T) {
	rows, err := Makespan(Options{Seed: 3, NPs: []int{2048}}, 2048, 6)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "makespan_np2048_seed3.golden", table.Of(rows))
}
