package cluster

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// TestLaunchQueuedRejectsOversizedTenant pins the queued-admission capacity
// check: a tenant larger than the whole machine fails the launch with a
// typed error naming the tenant, its np and the capacity, and nothing is
// spawned — so the kernel drains cleanly instead of deadlocking on an
// admission that can never happen.
func TestLaunchQueuedRejectsOversizedTenant(t *testing.T) {
	k := sim.NewKernel()
	m, err := machine.New(k, xrand.New(1), machine.Intrepid(512))
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(m, nil)
	jobs, err := s.LaunchQueued([]Tenant{
		{Name: "fits", NP: 256},
		{Name: "huge", NP: 1024},
	})
	var ce *CapacityError
	if !errors.As(err, &ce) {
		t.Fatalf("LaunchQueued = %v, want *CapacityError", err)
	}
	if ce.Tenant != "huge" || ce.NP != 1024 || ce.Capacity != 512 {
		t.Fatalf("capacity error %+v, want tenant huge np=1024 capacity=512", *ce)
	}
	for _, want := range []string{`"huge"`, "1024", "512"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %s", err, want)
		}
	}
	if jobs != nil {
		t.Fatalf("rejected launch returned jobs: %v", jobs)
	}
	if err := k.Run(); err != nil {
		t.Fatalf("kernel after a rejected launch: %v", err)
	}
	if k.Events() != 0 {
		t.Fatalf("rejected launch dispatched %d events", k.Events())
	}
}
