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

// op serializes the calling process through the metadata server for base
// seconds of service, amplified on the create path by the queue it finds
// when it reaches the head.
func (m *CentralizedMDS) op(p *sim.Proc, c *Core, amplify bool, base float64) {
	if m.heavy == nil {
		m.heavy = sim.NewResource(1)
		m.light = sim.NewResource(1)
	}
	res := m.light
	if amplify {
		res = m.heavy
	}
	res.Acquire(p)
	service := base
	if amplify {
		q := float64(res.QueueLen()) / mdsQueueRef
		mult := q * q
		if mult > mdsMaxSlowdown {
			mult = mdsMaxSlowdown
		}
		service *= 1 + mult
	}
	// Mild OS-level jitter on metadata service, always present.
	service *= c.MDSJitter()
	p.Sleep(service)
	res.Release()
}

// Create implements Metadata: the create holds the directory lock
// (amplified under a deep queue) and scans the directory, whose population
// is read at service time.
func (m *CentralizedMDS) Create(p *sim.Proc, c *Core, path string) {
	dir := DirOf(path)
	m.op(p, c, true, mdsCreateBase)
	p.Sleep(mdsEntryCost * float64(c.DirEntries(dir)) * c.MDSJitter())
}

// Open implements Metadata.
func (m *CentralizedMDS) Open(p *sim.Proc, c *Core, path string) {
	m.op(p, c, false, mdsOpenBase)
}

// Close implements Metadata.
func (m *CentralizedMDS) Close(p *sim.Proc, c *Core, path string) {
	m.op(p, c, false, mdsCloseBase)
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

// op serializes the caller through the path's metadata queue.
func (m *HashedMDS) op(p *sim.Proc, c *Core, path string, base float64) {
	q := m.queueFor(c, path)
	q.Acquire(p)
	p.Sleep(base * c.MDSJitter())
	q.Release()
}

// Create implements Metadata.
func (m *HashedMDS) Create(p *sim.Proc, c *Core, path string) {
	m.op(p, c, path, hashedCreateBase)
}

// Open implements Metadata.
func (m *HashedMDS) Open(p *sim.Proc, c *Core, path string) {
	m.op(p, c, path, hashedOpenBase)
}

// Close implements Metadata.
func (m *HashedMDS) Close(p *sim.Proc, c *Core, path string) {
	m.op(p, c, path, hashedCloseBase)
}
