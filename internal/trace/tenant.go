package trace

import "strings"

// TenantRange declares one tenant's identity windows for span attribution:
// the global rank ids its MPI world owns and the global pset range its
// machine slice covers. Both are half-open. Multi-tenant sessions install
// a table of these on the run's recorder (SetTenants) so every span the
// instrumented layers emit is credited to the tenant that caused it.
type TenantRange struct {
	RankLo int
	RankHi int
	PsetLo int
	PsetHi int
}

// tenantAgg is one attribution row: per-layer summed span busy time (ranks
// of a tenant overlap in time, so this is aggregate busy time, not wall
// time).
type tenantAgg [NumLayers]kacc

// SetTenants installs the attribution table. Spans recorded from then on
// are credited to the tenant whose window contains the span's track — rank
// windows for the rank-tracked layers (mpi, ckpt, compute, and the storage
// client spans, which all carry global rank ids), pset windows for the
// fabric and burst-buffer layers (ION funnels, NICs, bb partitions). Spans
// on genuinely shared hardware — the Ethernet core and the file servers —
// fit no window and land on the shared row. Attribution is pure
// observation: it never perturbs the simulation.
func (r *Recorder) SetTenants(ranges []TenantRange) {
	if r == nil {
		return
	}
	r.tenants = ranges
	r.tenantAggs = make([]tenantAgg, len(ranges)+1) // +1: the shared row
}

// attributeSpan credits a span to its tenant; called by Span when a table
// is installed.
func (r *Recorder) attributeSpan(l Layer, name string, track int, d float64) {
	i := r.tenantOf(l, name, track)
	if i < 0 {
		i = len(r.tenants) // shared row
	}
	r.tenantAggs[i][l].add(d)
}

// tenantOf resolves a span's track to a tenant index, or -1 for shared
// hardware. The layer decides the track's meaning; the two exceptions are
// named spans on shared components inside otherwise-attributable layers.
func (r *Recorder) tenantOf(l Layer, name string, track int) int {
	switch l {
	case LayerFabric, LayerBBuf:
		if name == "eth.core" {
			return -1
		}
		for i := range r.tenants {
			if track >= r.tenants[i].PsetLo && track < r.tenants[i].PsetHi {
				return i
			}
		}
		return -1
	case LayerStorage:
		if strings.HasPrefix(name, "server.") {
			return -1
		}
	}
	for i := range r.tenants {
		if track >= r.tenants[i].RankLo && track < r.tenants[i].RankHi {
			return i
		}
	}
	return -1
}

// TenantSpanTime returns the summed span busy time credited to tenant i on
// one layer. i equal to the number of ranges SetTenants installed addresses
// the shared row.
func (r *Recorder) TenantSpanTime(i int, l Layer) float64 {
	if r == nil || r.tenantAggs == nil || i < 0 || i >= len(r.tenantAggs) {
		return 0
	}
	return r.tenantAggs[i][l].value()
}
