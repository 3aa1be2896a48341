package storage

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/fsys"
	"repro/internal/xrand"
)

// Typed storage failures, aliased from fsys so strategies can classify them
// without importing this package. The core returns these (wrapped with
// detail) instead of silently charging time against a dead server.
var (
	ErrServerDown = fsys.ErrServerDown
	ErrTimeout    = fsys.ErrTimeout
)

// FaultPolicy is how the storage client side reacts to unresponsive
// servers: how long detection takes, how retries back off, and whether the
// striped layout fails writes over to surviving servers.
type FaultPolicy struct {
	DetectTimeout float64 // per-attempt time to declare a server unresponsive, seconds
	RetryBase     float64 // initial backoff before re-probing the home server, seconds
	RetryMax      int     // probe attempts before the operation errors out
	Jitter        float64 // backoff jitter fraction, drawn from the fault RNG
	Failover      bool    // redirect blocks to the next surviving stripe server
}

// DefaultFaultPolicy returns the stock reaction: half-second detection,
// exponential backoff from 250 ms with 25% jitter, four attempts, failover
// on.
func DefaultFaultPolicy() FaultPolicy {
	return FaultPolicy{DetectTimeout: 0.5, RetryBase: 0.25, RetryMax: 4, Jitter: 0.25, Failover: true}
}

// EnableFaults attaches a fault injector to the core. The retry-jitter RNG
// is a dedicated stream (seeded at the experiment level, never split from
// the machine RNG) so enabling faults cannot perturb the noise model's
// draws; with in == nil every data-path query short-circuits to the home
// server with zero draws and zero added time.
func (c *Core) EnableFaults(in *fault.Injector, pol FaultPolicy, rng *xrand.RNG) {
	if pol.RetryMax <= 0 {
		pol = DefaultFaultPolicy()
	}
	if rng == nil {
		rng = xrand.New(0x9e3779b97f4a7c15)
	}
	c.faults, c.fpol, c.frng = in, pol, rng
}

// PlanServer resolves which server serves block b of f for an operation
// issued at simulated time t under the fault schedule: the home stripe
// server when it is up (the only case in a fault-free run — zero RNG draws,
// zero delay), otherwise the policy's detection timeouts, jittered backoff
// retries and failover scan. delay is the charged fault-handling time
// before the operation may proceed; err is a typed ErrServerDown/ErrTimeout
// when the retry budget exhausts without finding a live server.
func (c *Core) PlanServer(f *File, b int64, t float64) (*Server, float64, error) {
	home := int((int64(f.stripe) + b) % int64(len(c.servers)))
	if c.faults == nil || c.faults.UpAt(fault.Server, home, t) {
		return c.servers[home], 0, nil
	}
	pol := c.fpol
	delay := 0.0
	backoff := pol.RetryBase
	for attempt := 0; ; attempt++ {
		// The client burns a detection timeout discovering the server is
		// unresponsive before it can react.
		delay += pol.DetectTimeout
		c.Stats.Retries++
		if c.rec != nil {
			c.rec.Instant(c.recLayer, "storage.retry", home, t+delay)
		}
		if pol.Failover {
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
		}
		if attempt+1 >= pol.RetryMax {
			break
		}
		step := backoff * (1 + pol.Jitter*c.frng.Float64())
		backoff *= 2
		delay += step
		if c.faults.UpAt(fault.Server, home, t+delay) {
			c.Stats.FaultDelay += delay
			return c.servers[home], delay, nil
		}
	}
	c.Stats.FaultDelay += delay
	c.Stats.CommitErrors++
	if pol.Failover {
		return nil, delay, fmt.Errorf("%w: %s block %d, no surviving server after %d attempts (%.2fs)",
			ErrServerDown, f.name, b, pol.RetryMax, delay)
	}
	return nil, delay, fmt.Errorf("%w: %s block %d, home server %d unresponsive after %d attempts (%.2fs)",
		ErrTimeout, f.name, b, pol.RetryMax, home, delay)
}
