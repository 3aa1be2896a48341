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

// coroutine is a runtime coroutine (iter.Pull) that runs the phases a
// process borrows it for (see Proc.Borrow). A driver resumes it; it runs
// its process's phase until the phase yields its status to the driver
// (see drive), and the process releases it once it ended.
type coroutine struct {
	resume func() (status, bool)
	stop   func()
	yield  func(status) bool
	p      *Proc       // the process it is lent to
	fn     func(*Proc) // the phase to run at the next resume, until it is taken
	then   Cont        // the continuation that borrowed the running phase; nil: the body
}

// status is what a process yields to its driver.
type status uint8

const (
	waiting    status = iota // its resume is scheduled, or it parked
	continuing               // its continuation runs at once (AwaitNow)
	suspended                // it left its lane for a shared section (EnterShared)
	returned                 // its phase returned
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
	// The loop runs every phase on this coroutine in its own frame, with
	// no call between it and the phase: a parked phase keeps these frames
	// on its stack, and their depth sets the starting stack size (see
	// DESIGN.md §5).
	c.resume, c.stop = iter.Pull(func(yield func(status) bool) {
		c.yield = yield
		var p *Proc // the process whose phase runs
		defer func() {
			// A panic ends the coroutine, wrapped so it keeps its origin.
			// recover is nil during runtime.Goexit, which passes through.
			if r := recover(); r != nil {
				panic(&procPanic{name: p.name, value: r, stack: debug.Stack()})
			}
		}()
		for {
			// Take the phase first, so an idle coroutine pins nothing the
			// phase captured.
			var fn func(*Proc)
			p, fn, c.fn = c.p, c.fn, nil
			p.inPhase = true
			fn(p)
			p.inPhase = false
			p = nil
			if !yield(returned) {
				return
			}
		}
	})
	return c
}

// release retires c, parked after yielding returned, once its process
// ended: to the idle list in race-enabled builds, otherwise by stopping
// it, which ends its goroutine.
func (c *coroutine) release() {
	c.p = nil
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
