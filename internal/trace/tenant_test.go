package trace

import "testing"

// tenantTestRecorder installs the canonical two-tenant table: t0 owns ranks
// [0,64) on pset 0, t1 owns ranks [64,128) on pset 1.
func tenantTestRecorder() *Recorder {
	r := &Recorder{MaxEvents: 0}
	r.SetTenants([]TenantRange{
		{RankLo: 0, RankHi: 64, PsetLo: 0, PsetHi: 1},
		{RankLo: 64, RankHi: 128, PsetLo: 1, PsetHi: 2},
	})
	return r
}

// TestTenantAttributionRouting pins which window each layer's tracks
// resolve through: rank ids for the rank-tracked layers, pset ids for the
// fabric, and the shared row for hardware no tenant owns exclusively.
func TestTenantAttributionRouting(t *testing.T) {
	r := tenantTestRecorder()
	shared := len(r.tenants)

	// Rank-tracked layers: ckpt and the storage client spans carry global
	// rank ids.
	r.Span(LayerCkpt, "write", 10, 0, 2, 100)     // rank 10 -> t0
	r.Span(LayerStorage, "client", 70, 0, 3, 200) // rank 70 -> t1
	// Pset-tracked layers: the fabric's funnels and NICs.
	r.Span(LayerFabric, "ion.funnel", 1, 0, 5, 400) // pset 1 -> t1
	r.Span(LayerFabric, "eth.nic", 0, 0, 7, 800)    // pset 0 -> t0
	// Shared hardware: the Ethernet core and the file servers fit no
	// window even when their track would land inside one.
	r.Span(LayerFabric, "eth.core", 0, 0, 11, 1600)
	r.Span(LayerStorage, "server.gpfs", 0, 0, 13, 3200)
	// A fabric track outside every pset window is shared too.
	r.Span(LayerFabric, "ion.funnel", 5, 0, 17, 6400)

	if got := r.TenantSpanTime(0, LayerCkpt); got != 2 {
		t.Errorf("t0 ckpt time %v, want 2", got)
	}
	if got := r.TenantSpanTime(1, LayerStorage); got != 3 {
		t.Errorf("t1 storage time %v, want 3", got)
	}
	if got := r.TenantSpanTime(1, LayerFabric); got != 5 {
		t.Errorf("t1 fabric time %v, want 5", got)
	}
	if got := r.TenantSpanTime(0, LayerFabric); got != 7 {
		t.Errorf("t0 fabric time %v, want 7", got)
	}
	if got := r.TenantSpanTime(shared, LayerFabric); got != 11+17 {
		t.Errorf("shared fabric time %v, want 28", got)
	}
	if got := r.TenantSpanTime(shared, LayerStorage); got != 13 {
		t.Errorf("shared storage time %v, want 13", got)
	}
}

// TestTenantAttributionAccumulates checks repeated spans sum per tenant.
func TestTenantAttributionAccumulates(t *testing.T) {
	r := tenantTestRecorder()
	for i := 0; i < 10; i++ {
		r.Span(LayerCkpt, "write", 0, float64(i), float64(i)+0.5, 10)
	}
	if got := r.TenantSpanTime(0, LayerCkpt); got != 5 {
		t.Errorf("accumulated time %v, want 5", got)
	}
}

// TestTenantNilSafety pins the observation-only contract: a nil recorder
// and out-of-range tenant indices answer zero instead of panicking, and a
// recorder without a table attributes nothing.
func TestTenantNilSafety(t *testing.T) {
	var nilRec *Recorder
	nilRec.SetTenants([]TenantRange{{}})
	if nilRec.TenantSpanTime(0, LayerCkpt) != 0 {
		t.Error("nil recorder attributes time")
	}

	r := &Recorder{MaxEvents: 0}
	r.Span(LayerCkpt, "write", 0, 0, 1, 10) // no table installed
	if r.TenantSpanTime(0, LayerCkpt) != 0 {
		t.Error("untabled recorder attributes time")
	}

	r = tenantTestRecorder()
	if r.TenantSpanTime(-1, LayerCkpt) != 0 || r.TenantSpanTime(99, LayerCkpt) != 0 {
		t.Error("out-of-range tenant index attributes time")
	}
}
