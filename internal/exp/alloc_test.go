package exp

import (
	"runtime/metrics"
	"testing"
)

// heapAllocBytes reads the cumulative bytes the process has allocated on
// the heap.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// TestRbIOAllocBudget pins what a serial fig5 rbIO nf=ng run at np=4096
// allocates: on runs that collect only a few times, allocation volume sets
// peak RSS. With block-recycled calendar storage and gather runs,
// checkpoint fields and rbIO commit runs sized up front, the run allocates
// 16–19 MB; the budget leaves about 5 MB for other growth.
func TestRbIOAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("np=4096 simulation")
	}
	const budget = 24e6
	o := Options{Seed: 1, NPs: []int{4096}, Ckpt: "rbio", Parallel: 1}
	before := heapAllocBytes()
	if _, err := Headline(o); err != nil {
		t.Fatal(err)
	}
	got := heapAllocBytes() - before
	t.Logf("fig5 rbio np=4096 allocated %.1f MB", float64(got)/1e6)
	if got > budget {
		t.Errorf("fig5 rbio np=4096 allocated %.1f MB, budget %.0f MB", float64(got)/1e6, budget/1e6)
	}
}
