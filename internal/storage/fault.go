package storage

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/fsys"
	"repro/internal/xrand"
)

// ErrServerDown, aliased from fsys so strategies can classify it without
// importing this package, is what the core returns (wrapped with detail)
// instead of silently charging time against a dead server.
var ErrServerDown = fsys.ErrServerDown

// The client side's fixed reaction to an unresponsive server: each probe
// attempt burns a detection timeout and fails the block over to the next
// surviving stripe server; when none survives the client backs off,
// exponentially from retryBase with retryJitter jitter drawn from the fault
// RNG, and re-probes the home server, up to retryMax attempts.
const (
	detectTimeout float64 = 0.5  // per-attempt time to declare a server unresponsive, seconds
	retryBase     float64 = 0.25 // initial backoff before re-probing the home server, seconds
	retryMax      int     = 4    // probe attempts before the operation errors out
	retryJitter   float64 = 0.25 // backoff jitter fraction
)

// EnableFaults attaches a fault injector to the core. The retry-jitter RNG
// is a dedicated stream (seeded at the experiment level, never split from
// the machine RNG) so enabling faults cannot perturb the noise model's
// draws; with in == nil every data-path query short-circuits to the home
// server with zero draws and zero added time.
func (c *Core) EnableFaults(in *fault.Injector, rng *xrand.RNG) {
	c.faults, c.frng = in, rng
}

// PlanServer resolves which server serves block b of f for an operation
// issued at simulated time t under the fault schedule: the home stripe
// server when it is up (the only case in a fault-free run — zero RNG draws,
// zero delay), otherwise the client's detection timeouts, failover scans and
// jittered backoff retries. delay is the charged fault-handling time before
// the operation may proceed; err is a typed ErrServerDown when the retry
// budget exhausts without finding a live server.
func (c *Core) PlanServer(f *File, b int64, t float64) (*Server, float64, error) {
	home := int((int64(f.stripe) + b) % int64(len(c.servers)))
	if c.faults == nil || c.faults.UpAt(fault.Server, home, t) {
		return c.servers[home], 0, nil
	}
	delay := 0.0
	backoff := retryBase
	for attempt := 0; ; attempt++ {
		// The client burns a detection timeout discovering the server is
		// unresponsive before it can react.
		delay += detectTimeout
		c.Stats.Retries++
		if c.rec != nil {
			c.rec.Instant(c.recLayer, "storage.retry", home, t+delay)
		}
		for s := 1; s < len(c.servers); s++ {
			cand := (home + s) % len(c.servers)
			if c.faults.UpAt(fault.Server, cand, t+delay) {
				c.Stats.Failovers++
				if c.rec != nil {
					c.rec.Instant(c.recLayer, "storage.failover", cand, t+delay)
				}
				c.Stats.FaultDelay += delay
				return c.servers[cand], delay, nil
			}
		}
		if attempt+1 >= retryMax {
			break
		}
		step := backoff * (1 + retryJitter*c.frng.Float64())
		backoff *= 2
		delay += step
		if c.faults.UpAt(fault.Server, home, t+delay) {
			c.Stats.FaultDelay += delay
			return c.servers[home], delay, nil
		}
	}
	c.Stats.FaultDelay += delay
	c.Stats.CommitErrors++
	return nil, delay, fmt.Errorf("%w: %s block %d, no surviving server after %d attempts (%.2fs)",
		ErrServerDown, f.name, b, retryMax, delay)
}
