package perf

import (
	"math"
	"runtime/debug"
	"testing"
)

// TestGCSettingsPrecedence checks that an explicit GOGC or GOMEMLIMIT wins
// over the value TuneGC would pick for that knob and leaves the other one
// to TuneGC, and that unknown physical memory means no limit.
func TestGCSettingsPrecedence(t *testing.T) {
	const gib = 1 << 30
	for _, tc := range []struct {
		env     map[string]string
		phys    uint64
		percent int
		limit   int64
	}{
		{nil, 8 * gib, 250, 6 * gib},
		{map[string]string{"GOGC": "100"}, 8 * gib, -1, 6 * gib},
		{map[string]string{"GOGC": "off"}, 8 * gib, -1, 6 * gib},
		{map[string]string{"GOMEMLIMIT": "450MiB"}, 8 * gib, 250, -1},
		{map[string]string{"GOGC": "100", "GOMEMLIMIT": "1GiB"}, 8 * gib, -1, -1},
		{nil, 0, 250, -1},
	} {
		percent, limit := gcSettings(func(k string) string { return tc.env[k] }, tc.phys)
		if percent != tc.percent || limit != tc.limit {
			t.Errorf("env %v, %d bytes: percent %d limit %d, want %d %d",
				tc.env, tc.phys, percent, limit, tc.percent, tc.limit)
		}
	}
}

// TestTuneGCAppliesLimit checks the process-wide effect: with neither
// variable set, TuneGC leaves a soft limit of three quarters of physical
// memory, and an explicit GOMEMLIMIT keeps the runtime's own limit.
func TestTuneGCAppliesLimit(t *testing.T) {
	if physMem() == 0 {
		t.Skip("physical memory unknown on this platform")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(100))
	defer debug.SetMemoryLimit(debug.SetMemoryLimit(-1))

	t.Setenv("GOGC", "")
	t.Setenv("GOMEMLIMIT", "")
	debug.SetMemoryLimit(math.MaxInt64)
	TuneGC()
	if got, want := debug.SetMemoryLimit(-1), int64(physMem()/4*3); got != want {
		t.Errorf("memory limit %d after TuneGC, want %d", got, want)
	}

	t.Setenv("GOMEMLIMIT", "1GiB")
	debug.SetMemoryLimit(math.MaxInt64)
	TuneGC()
	if got := debug.SetMemoryLimit(-1); got != math.MaxInt64 {
		t.Errorf("memory limit %d after TuneGC with GOMEMLIMIT set, want it untouched", got)
	}
}
