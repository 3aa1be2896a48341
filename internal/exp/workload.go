package exp

import (
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"strings"

	"repro/internal/ckpt"
	"repro/internal/xrand"
)

// Workload is a seeded random job mix: a Poisson-ish arrival process over
// power-of-two job sizes with a per-job strategy draw. The same
// (Workload, Seed) always generates the same tenants — the arrival process
// is part of the experiment's determinism contract, like the noise and
// fault schedules.
type Workload struct {
	Jobs  int     // number of tenants to generate
	Seed  uint64  // generator stream; independent of the simulation seed
	MinNP int     // smallest job size (rounded up to a power of two)
	MaxNP int     // largest job size
	Gap   float64 // mean exponential interarrival, simulated seconds
	Steps int     // solver steps per job (0: one)

	// Mix is the pool of ckpt-registry strategy names jobs draw from
	// uniformly; empty defaults to ckpt.DefaultStrategy (the paper's rbIO).
	// Names resolve per tenant, so np-scaled strategies (coIO's np:nf=64:1
	// arm) size themselves to each job.
	Mix []string
}

// Generator bounds: far past any job queue or machine the simulator builds,
// low enough that a mistyped spec is an error instead of an endless
// allocation.
const (
	maxJobs = 1 << 16
	maxNP   = 1 << 30
)

// WorkloadError is the type of every error ParseWorkload and Tenants
// return for a bad setting, so a CLI can exit 2 on it. Err carries the
// message and any cause (a ckpt-registry *registry.UnknownError stays
// reachable through errors.As).
type WorkloadError struct{ Err error }

func (e *WorkloadError) Error() string { return e.Err.Error() }
func (e *WorkloadError) Unwrap() error { return e.Err }

func badWorkload(format string, a ...any) error {
	return &WorkloadError{fmt.Errorf(format, a...)}
}

// DefaultWorkload is the -workload starting point: four one-step jobs
// between 256 and 1024 ranks arriving ~2 simulated seconds apart.
func DefaultWorkload() Workload {
	return Workload{Jobs: 4, Seed: 1, MinNP: 256, MaxNP: 1024, Gap: 2}
}

// Tenants generates the job list. Sizes are powers of two in
// [MinNP, MaxNP] (uniform over the exponents), so every job is
// node-aligned on the standard machines.
func (wk Workload) Tenants() ([]Tenant, error) {
	if wk.Jobs <= 0 || wk.Jobs > maxJobs {
		return nil, badWorkload("cluster: workload needs jobs > 0 and <= %d, got %d", maxJobs, wk.Jobs)
	}
	if wk.MinNP <= 0 || wk.MaxNP < wk.MinNP || wk.MaxNP > maxNP {
		return nil, badWorkload("cluster: workload np range %d:%d invalid (want 0 < min <= max <= %d)", wk.MinNP, wk.MaxNP, maxNP)
	}
	if wk.Gap < 0 {
		return nil, badWorkload("cluster: workload gap %v negative", wk.Gap)
	}
	if math.IsNaN(wk.Gap) || math.IsInf(wk.Gap, 0) {
		return nil, badWorkload("cluster: workload gap %v not finite", wk.Gap)
	}
	loExp := ceilLog2(wk.MinNP)
	hiExp := floorLog2(wk.MaxNP)
	if hiExp < loExp {
		return nil, badWorkload("cluster: no power of two in np range %d:%d", wk.MinNP, wk.MaxNP)
	}
	mix := wk.Mix
	if len(mix) == 0 {
		mix = []string{ckpt.DefaultStrategy}
	}
	rng := xrand.New(wk.Seed | 1)
	ts := make([]Tenant, wk.Jobs)
	arrival := 0.0
	for i := range ts {
		if i > 0 && wk.Gap > 0 {
			arrival += rng.Exp(wk.Gap)
		}
		np := 1 << (loExp + rng.Intn(hiExp-loExp+1))
		strat, err := ckpt.New(mix[rng.Intn(len(mix))], np)
		if err != nil {
			return nil, badWorkload("cluster: workload mix: %w", err)
		}
		ts[i] = Tenant{
			Name:     fmt.Sprintf("j%d", i),
			NP:       np,
			Strategy: strat,
			Arrival:  arrival,
			Steps:    wk.Steps,
		}
	}
	return ts, nil
}

// ceilLog2 and floorLog2 take n >= 1.
func ceilLog2(n int) int { return bits.Len(uint(n - 1)) }

func floorLog2(n int) int { return bits.Len(uint(n)) - 1 }

// ParseWorkload parses the -workload flag syntax: comma-separated
// key=value pairs over jobs, np (min:max), gap, steps, seed, strategy
// (any ckpt-registry name, or "all" for the three headline families).
// Example: "jobs=6,np=256:1024,gap=1.5,seed=3". Unknown keys and
// malformed values are errors so the CLI can exit 2.
func ParseWorkload(spec string) (Workload, error) {
	wk := DefaultWorkload()
	if spec == "" {
		return wk, nil
	}
	for _, kv := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return wk, badWorkload("cluster: workload term %q is not key=value", kv)
		}
		var err error
		switch k {
		case "jobs":
			wk.Jobs, err = strconv.Atoi(v)
		case "np":
			lo, hi, ok := strings.Cut(v, ":")
			if !ok {
				hi = lo
			}
			if wk.MinNP, err = strconv.Atoi(lo); err == nil {
				wk.MaxNP, err = strconv.Atoi(hi)
			}
		case "gap":
			wk.Gap, err = strconv.ParseFloat(v, 64)
		case "steps":
			wk.Steps, err = strconv.Atoi(v)
		case "seed":
			wk.Seed, err = strconv.ParseUint(v, 10, 64)
		case "strategy":
			if v == "all" {
				wk.Mix = []string{"1pfpp", "coio1", "rbio"}
				break
			}
			d, lerr := ckpt.Lookup(v)
			if lerr != nil {
				return wk, badWorkload("cluster: workload strategy: %w (or \"all\")", lerr)
			}
			wk.Mix = []string{d.Name}
		default:
			return wk, badWorkload("cluster: unknown workload key %q (valid: jobs, np, gap, steps, seed, strategy)", k)
		}
		if err != nil {
			return wk, badWorkload("cluster: workload %s=%q: %v", k, v, err)
		}
	}
	if _, err := wk.Tenants(); err != nil {
		return wk, err
	}
	return wk, nil
}
