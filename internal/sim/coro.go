//go:build go1.23

// The coroutine baton needs iter.Pull, which is Go 1.23, while go.mod says
// go 1.22: raising it alone breaks the bench module's build, whose go line
// must move with it. This constraint gives this one file 1.23 semantics
// until then; drop it once both go.mod files say go 1.23.

package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
	"sync"
)

// coroutine is a runtime coroutine (iter.Pull) that runs process bodies.
// A driver resumes it; it runs its process until the process yields its
// status to the driver (see drive), which releases it once its process
// ended.
type coroutine struct {
	resume func() (status, bool)
	stop   func()
	yield  func(status) bool
	p      *Proc // process whose body runs at the next resume, until the body loop takes it
	fn     func(*Proc)
}

// status is what a process yields to its driver.
type status uint8

const (
	waiting    status = iota // its resume is scheduled, or it parked
	continuing               // its continuation runs at once (AwaitNow)
	suspended                // it left its lane for a shared section (EnterShared)
	ended                    // its body returned
)

// idleCoroutines holds released coroutines for reuse in race-enabled
// builds, shared by every kernel in the program (kernels run on concurrent
// goroutines, hence the lock). A coroutine that exits under the race
// detector leaks the detector's per-goroutine state, about 4 KB, because
// the runtime's coroutine exit skips racegoend (Go 1.24); one exit per
// process runs a race-enabled test of millions of processes out of memory.
// Other builds let released coroutines exit: an idle coroutine keeps its
// grown stack, which the collector counts toward its heap goal, and
// keeping them raised peak RSS by 35% on bbfleet-2k and 44% on
// rbio-16k-sharded.
var idleCoroutines struct {
	sync.Mutex
	list []*coroutine
}

// start gives p a coroutine to run fn on and schedules p's first resume.
// The coroutine is created parked, so spawning costs no scheduler round
// trip; fn first runs when a driver resumes p. When fn returns the process
// ends, and its driver releases the coroutine (see drive).
func (k *Kernel) start(p *Proc, fn func(p *Proc)) *Proc {
	p.co = newCoroutine()
	p.co.p, p.co.fn = p, fn
	k.AfterProc(0, p)
	return p
}

// newCoroutine returns an idle coroutine (race-enabled builds) or a new
// one.
func newCoroutine() *coroutine {
	if raceEnabled {
		idle := &idleCoroutines
		idle.Lock()
		if n := len(idle.list); n > 0 {
			c := idle.list[n-1]
			idle.list[n-1] = nil
			idle.list = idle.list[:n-1]
			idle.Unlock()
			return c
		}
		idle.Unlock()
	}
	c := new(coroutine)
	// The body runs every process on this coroutine in its own frame, with
	// no call between it and the process: a parked process keeps these
	// frames on its stack, and their depth sets the starting stack size
	// (see DESIGN.md §5).
	c.resume, c.stop = iter.Pull(func(yield func(status) bool) {
		c.yield = yield
		var p *Proc // the process running
		defer func() {
			// A panic ends the coroutine, wrapped so it keeps its origin.
			// recover is nil during runtime.Goexit, which passes through.
			if r := recover(); r != nil {
				panic(&procPanic{name: p.name, value: r, stack: debug.Stack()})
			}
		}()
		for {
			// Forget the body first, so an idle coroutine pins neither the
			// process nor anything the body captured.
			var fn func(*Proc)
			p, fn, c.p, c.fn = c.p, c.fn, nil, nil
			fn(p)
			p.done = true
			p = nil
			if !yield(ended) {
				return
			}
		}
	})
	return c
}

// release retires c, parked after yielding ended: to the idle list in
// race-enabled builds, otherwise by stopping it, which ends its goroutine.
func (c *coroutine) release() {
	if !raceEnabled {
		c.stop()
		return
	}
	idle := &idleCoroutines
	idle.Lock()
	idle.list = append(idle.list, c)
	idle.Unlock()
}

// procPanic is a process's panic on its way out of the coroutine. iter.Pull
// re-raises it in the goroutine that resumed the process, where the
// panicking stack is gone; the wrapper keeps the process name and that
// stack, captured while the panicking frames were still live.
type procPanic struct {
	name  string
	value any
	stack []byte
}

func (e *procPanic) Error() string {
	return fmt.Sprintf("sim: process %s panicked: %v\n\n%s", e.name, e.value, e.stack)
}

// Unwrap returns the original panic value when it is an error.
func (e *procPanic) Unwrap() error {
	err, _ := e.value.(error)
	return err
}
