package bbuf

import "repro/internal/registry"

// Request is one drain awaiting dispatch: an absorbed write sitting in a
// fleet node's buffer until the node's drain channel picks it up. The
// scheduler sees only this value — the handle, offsets, and storage plumbing
// stay inside the fleet.
type Request struct {
	Seq      int64 // fleet-wide admission order; the deterministic tie-break
	Priority int   // tenant drain priority; higher drains first under "tenant"
	Bytes    int64
	Ready    float64 // when absorption completed and the drain became eligible
	Deadline float64 // Ready + drainTarget; the deadline-aware key
}

// Scheduler is the drain-ordering policy seam: it decides which pending
// request a fleet node's drain channel serves next. Policies register under
// a name in a registry.Registry and the -drain flag selects one.
type Scheduler interface {
	Name() string
	// Queued reports whether the policy can reorder pending drains. A
	// false return means pass-through: requests dispatch immediately at
	// absorb time in arrival order, with the drain pipe's FIFO pacing as
	// the only queueing — the legacy private-buffer behavior, and the only
	// mode pinned byte-identical by the pre-fleet goldens. A true return
	// runs an event-driven dispatcher that holds requests in a backlog and
	// asks Pick each time the node's drain channel frees.
	Queued() bool
	// Pick returns the index into pending of the request to dispatch next.
	// pending is never empty; its order is admission order (Seq ascending).
	// Pick must be a pure function of pending — determinism across shard
	// counts and GOMAXPROCS rests on it.
	Pick(pending []Request) int
}

// DefaultScheduler is what an empty policy name resolves to.
const DefaultScheduler = "fifo"

var schedulers = registry.New[Scheduler]("bbuf drain scheduler", DefaultScheduler)

// Lookup resolves a drain-policy name. The empty string resolves to
// DefaultScheduler; an unregistered name returns a *registry.UnknownError.
func Lookup(name string) (Scheduler, error) { return schedulers.Lookup(name) }

// FIFO serves drains in admission order. It is pass-through (Queued false):
// each request's drain is planned the moment its absorption completes, and
// the drain pipe's arithmetic FIFO does the pacing — exactly the pre-fleet
// private-buffer code path, which is what keeps a 1-node-per-ION fleet
// byte-identical to the legacy goldens.
type FIFO struct{}

func (FIFO) Name() string { return "fifo" }

func (FIFO) Queued() bool { return false }

func (FIFO) Pick(pending []Request) int { return 0 }

// Deadline is earliest-deadline-first: each request carries a drain
// deadline (Ready + drainTarget) and the backlog serves the most
// urgent one. Under a backlog this prioritizes the oldest absorbed data —
// the bytes whose epochs have waited longest for durability — over
// whatever happened to arrive first on this node.
type Deadline struct{}

func (Deadline) Name() string { return "deadline" }

func (Deadline) Queued() bool { return true }

func (Deadline) Pick(pending []Request) int {
	best := 0
	for i := 1; i < len(pending); i++ {
		if pending[i].Deadline < pending[best].Deadline ||
			(pending[i].Deadline == pending[best].Deadline && pending[i].Seq < pending[best].Seq) {
			best = i
		}
	}
	return best
}

// TenantPriority serves the highest-priority tenant's drains first (FIFO
// within a tenant). The cluster layer assigns each admitted job a drain
// priority, so a latency-critical tenant's checkpoints reach the shared
// arrays ahead of a batch tenant's backlog on the same fleet.
type TenantPriority struct{}

func (TenantPriority) Name() string { return "tenant" }

func (TenantPriority) Queued() bool { return true }

func (TenantPriority) Pick(pending []Request) int {
	best := 0
	for i := 1; i < len(pending); i++ {
		if pending[i].Priority > pending[best].Priority ||
			(pending[i].Priority == pending[best].Priority && pending[i].Seq < pending[best].Seq) {
			best = i
		}
	}
	return best
}

func init() {
	for _, s := range []Scheduler{FIFO{}, Deadline{}, TenantPriority{}} {
		schedulers.Register(s.Name(), s)
	}
}
