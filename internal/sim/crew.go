package sim

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The window handoff: how the sharded coordinator shares a parallel
// window's lanes with its helper lane workers without a trip through the Go
// scheduler per window.
//
// The coordinator opens a window by publishing one atomic word that packs
// a new epoch, the window's lane count and the next unclaimed lane. Every
// worker — the coordinator and each helper — claims lanes by incrementing
// that word, so a claim names its window: a worker that arrives late at a
// closed window only draws indices past the lane count, while one whose
// increment lands on the next window's word has legitimately claimed a lane
// of it. The coordinator joins on an atomic count of finished lanes, so it
// never waits for a helper that claimed nothing.
//
// Helpers wait for the next epoch by polling the word; windows follow each
// other within microseconds, and a poll notices the next one without any
// goroutine wakeup. A helper yields (runtime.Gosched) every few polls so it
// never keeps a runnable goroutine — a GC worker, another simulation in
// the same process — off its P, and after a bounded budget it parks on its
// wake channel, which the coordinator signals when it opens a window. A run spawns at most GOMAXPROCS-1
// helpers, so helpers exist, and poll, only when the coordinator and a
// helper can run at once; under GOMAXPROCS=1 the coordinator runs every
// lane itself.

// Layout of the window word: the next unclaimed lane in the low bits, the
// lane count above it, the epoch above that, and the stop bit on top.
const (
	countShift = 24
	epochShift = 48
	fieldMask  = 1<<countShift - 1 // lane index and lane count fields
	epochMask  = 1<<15 - 1
	stopWord   = 1 << 63
)

const yieldEvery = 16 // polls between Gosched calls while waiting

// helperPolls is how many times an idle helper polls for the next window
// before it parks. A variable so tests can force the park path.
var helperPolls = 1 << 12

// crew is one run's set of helper lane workers and the handoff state they
// share with the coordinator. The word and the finished-lane count sit on
// cache lines of their own: both are written by every worker.
type crew struct {
	word atomic.Uint64 // stop | epoch | lane count | next lane
	_    [56]byte
	done atomic.Uint64 // lanes finished this run
	_    [56]byte

	epoch   uint64 // coordinator: the current window's epoch
	target  uint64 // coordinator: done count that closes the current window
	helpers []*helper
	exited  sync.WaitGroup
	parks   atomic.Uint64 // times a helper parked
}

// helper is one helper goroutine's wake-up state. parked is set by the
// helper before it blocks on wake; whoever clears it owns the wake-up: the
// coordinator, which then sends one token, or the helper itself, which
// then does not block.
type helper struct {
	parked atomic.Bool
	wake   chan struct{} // capacity 1, so the coordinator never blocks
}

// startCrew spawns the run's helpers, min(workers, GOMAXPROCS)-1 of them,
// or none when a trace recorder is attached: lanes then run one at a time
// in the coordinator, under the kernel's one current layer and into its
// one recorder. The rule is applied here, at run start, so it holds
// whenever the recorder was attached.
func (k *Kernel) startCrew() {
	c := &k.sh.crew
	n := min(k.sh.workers, runtime.GOMAXPROCS(0)) - 1
	if k.rec != nil {
		n = 0
	}
	c.done.Store(0)
	c.target = 0
	c.word.Store(c.epoch << epochShift)
	for range n {
		h := &helper{wake: make(chan struct{}, 1)}
		c.helpers = append(c.helpers, h)
		c.exited.Add(1)
		go func(seen uint64) {
			defer c.exited.Done()
			k.helpLanes(h, seen)
		}(c.epoch)
	}
}

// stopCrew ends the run's helpers and returns once they have exited.
func (k *Kernel) stopCrew() {
	c := &k.sh.crew
	if len(c.helpers) == 0 {
		return
	}
	c.word.Store(stopWord)
	c.wakeParked()
	c.exited.Wait()
	clear(c.helpers)
	c.helpers = c.helpers[:0]
}

// openWindow publishes a window of n lanes (sh.active) to the helpers.
func (c *crew) openWindow(n int) {
	c.epoch = (c.epoch + 1) & epochMask
	c.target += uint64(n)
	c.word.Store(c.epoch<<epochShift | uint64(n)<<countShift)
	c.wakeParked()
}

func (c *crew) wakeParked() {
	for _, h := range c.helpers {
		if h.parked.Load() && h.parked.CompareAndSwap(true, false) {
			h.wake <- struct{}{}
		}
	}
}

// joinWindow waits until every lane of the open window has finished.
func (c *crew) joinWindow() {
	for polls := 1; c.done.Load() != c.target; polls++ {
		if polls%yieldEvery == 0 {
			runtime.Gosched()
		}
	}
}

// helpLanes is a helper's life: claim lanes of every window it sees until
// the coordinator stops the crew. seen is the epoch of the last window
// seen, with the stop bit in its top bit.
func (k *Kernel) helpLanes(h *helper, seen uint64) {
	for {
		seen = k.sh.crew.await(h, seen)
		if seen&(stopWord>>epochShift) != 0 {
			return
		}
		k.claimLanes()
	}
}

// await returns the top bits (stop and epoch) of the window word once they
// differ from seen: polling, yielding every few polls, then parking.
func (c *crew) await(h *helper, seen uint64) uint64 {
	for polls := 1; ; polls++ {
		if top := c.word.Load() >> epochShift; top != seen {
			return top
		}
		if polls < helperPolls {
			if polls%yieldEvery == 0 {
				runtime.Gosched()
			}
			continue
		}
		h.parked.Store(true)
		if top := c.word.Load() >> epochShift; top != seen {
			if !h.parked.CompareAndSwap(true, false) {
				<-h.wake // the coordinator cleared the flag first and sent a token
			}
			return top
		}
		c.parks.Add(1)
		<-h.wake
		polls = 0
	}
}

// claimLanes runs lanes of the open window, one claim at a time, until none
// is left. Lanes of one window touch disjoint state, so which worker runs
// which lane cannot change a result.
func (k *Kernel) claimLanes() {
	sh := k.sh
	for {
		w := sh.crew.word.Add(1) - 1
		if w&fieldMask >= w>>countShift&fieldMask {
			return
		}
		k.runClaimed(sh.active[w&fieldMask])
	}
}

// runClaimed runs a claimed lane and counts it finished. A panic is kept
// on the partition for the coordinator to re-raise once the window has
// joined (raiseLanePanic), so it reaches Run's caller whichever worker ran
// the lane.
func (k *Kernel) runClaimed(pt *partition) {
	defer func() {
		if r := recover(); r != nil {
			pt.panicked = r
		}
		k.sh.crew.done.Add(1)
	}()
	k.runLane(pt)
}

// raiseLanePanic re-raises the first lane panic of a joined window, in
// partition-index order: the panic a one-worker run raises.
func raiseLanePanic(active []*partition) {
	for _, pt := range active {
		if r := pt.panicked; r != nil {
			pt.panicked = nil
			panic(r)
		}
	}
}
