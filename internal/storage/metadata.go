package storage

import "repro/internal/sim"

// CentralizedMDS is the GPFS-style metadata policy: one metadata server
// whose create path holds the directory lock, scans the directory (cost
// grows with its population), and thrashes under deep request queues, while
// opens and closes take a lightweight path with its own queue so a create
// storm does not trap every close behind it. This is the 1PFPP failure
// mode: np creates in one directory serialize here.
type CentralizedMDS struct {
	heavy *sim.Resource // directory-lock path (creates)
	light *sim.Resource // lightweight path (opens, closes)
}

// CentralizedMDS costs, seconds, calibrated against the paper's Intrepid
// GPFS measurements. A create's cost grows with the directory's entry count,
// and under a deep request queue (lock-manager and directory-block
// contention) its service time is multiplied by
// 1 + min((queue/mdsQueueRef)^2, mdsMaxSlowdown): a 64K-rank 1PFPP create
// storm queues tens of thousands of requests and collapses, while a few
// thousand rbIO writer creates barely notice.
const (
	mdsCreateBase  float64 = 0.5e-3
	mdsOpenBase    float64 = 0.4e-3
	mdsCloseBase   float64 = 0.15e-3
	mdsEntryCost   float64 = 0.2e-6 // extra create cost per existing directory entry
	mdsQueueRef    float64 = 1870   // queue depth at which service time doubles
	mdsMaxSlowdown float64 = 30     // cap on the queue-induced multiplier
)

var _ Metadata = (*CentralizedMDS)(nil)

// Queue implements Metadata: creates take the directory-lock path, opens
// and closes the lightweight one.
func (m *CentralizedMDS) Queue(c *Core, op MetaOp, path string) *sim.Resource {
	if m.heavy == nil {
		m.heavy = sim.NewResource(1)
		m.light = sim.NewResource(1)
	}
	if op == MetaCreate {
		return m.heavy
	}
	return m.light
}

// Service implements Metadata: the op's base cost, amplified on the
// create path by the queue it leaves behind, times the jitter.
func (m *CentralizedMDS) Service(c *Core, op MetaOp, q *sim.Resource) float64 {
	service := mdsCloseBase
	switch op {
	case MetaCreate:
		service = mdsCreateBase
		x := float64(q.QueueLen()) / mdsQueueRef
		mult := x * x
		if mult > mdsMaxSlowdown {
			mult = mdsMaxSlowdown
		}
		service *= 1 + mult
	case MetaOpen:
		service = mdsOpenBase
	}
	// Mild OS-level jitter on metadata service, always present.
	return service * c.MDSJitter()
}

// Scan implements Metadata: a create, once it left the queue, scans the
// directory, whose population is read then, with a jitter of its own.
func (m *CentralizedMDS) Scan(c *Core, op MetaOp, path string) (float64, bool) {
	if op != MetaCreate {
		return 0, false
	}
	return mdsEntryCost * float64(c.DirEntries(DirOf(path))) * c.MDSJitter(), true
}

// HashedMDS is the PVFS-style metadata policy: file metadata is hashed
// across one queue per server, so a create storm spreads over NumServers
// queues instead of thrashing a single metadata server, and no directory
// scan is charged. 1PFPP degrades far more gracefully than under
// CentralizedMDS.
type HashedMDS struct {
	queues []*sim.Resource // one per server, lazily sized from the core
}

// HashedMDS costs per request, seconds.
const (
	hashedCreateBase float64 = 0.8e-3
	hashedOpenBase   float64 = 0.5e-3
	hashedCloseBase  float64 = 0.2e-3
)

var _ Metadata = (*HashedMDS)(nil)

// queueFor hashes a path (FNV-1a) to its metadata server queue.
func (m *HashedMDS) queueFor(c *Core, path string) *sim.Resource {
	if m.queues == nil {
		m.queues = make([]*sim.Resource, len(c.servers))
		for i := range m.queues {
			m.queues[i] = sim.NewResource(1)
		}
	}
	var h uint32 = 2166136261
	for i := 0; i < len(path); i++ {
		h = (h ^ uint32(path[i])) * 16777619
	}
	return m.queues[h%uint32(len(m.queues))]
}

// Queue implements Metadata: the path's hashed queue.
func (m *HashedMDS) Queue(c *Core, op MetaOp, path string) *sim.Resource { return m.queueFor(c, path) }

// Service implements Metadata: the op's base cost times the jitter.
func (m *HashedMDS) Service(c *Core, op MetaOp, q *sim.Resource) float64 {
	base := hashedCloseBase
	switch op {
	case MetaCreate:
		base = hashedCreateBase
	case MetaOpen:
		base = hashedOpenBase
	}
	return base * c.MDSJitter()
}

// Scan implements Metadata: hashed metadata scans no directory.
func (m *HashedMDS) Scan(c *Core, op MetaOp, path string) (float64, bool) { return 0, false }
