// Package xrand provides a small, fully deterministic pseudo-random number
// generator and the distributions the simulator needs.
//
// The simulation must be bit-reproducible for a given seed on any platform
// and any GOMAXPROCS, so it cannot use math/rand's global state or anything
// seeded from the wall clock. RNG is a xoshiro256** generator seeded through
// splitmix64, the construction recommended by its authors.
//
// An RNG is not safe for concurrent use; the simulator owns one per kernel
// and only ever touches it from the single runnable goroutine.
package xrand

import "math"

// RNG is a deterministic xoshiro256** pseudo-random number generator.
type RNG struct {
	s [4]uint64
}

// New returns an RNG seeded from the given seed via splitmix64, so that
// nearby seeds still produce uncorrelated streams.
func New(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

// Split derives a new, statistically independent generator from this one.
// It is used to give each simulation subsystem its own stream so that adding
// draws in one subsystem does not perturb another.
func (r *RNG) Split() *RNG {
	return New(r.Uint64())
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Float64 returns a uniform value in [0,1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0,n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Exp returns an exponentially distributed value with the given mean.
func (r *RNG) Exp(mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// Weibull returns a Weibull(scale, shape) distributed value via inversion:
// scale * (-ln U)^(1/shape). shape 1 degenerates to Exp(scale); shape > 1
// models wear-out (hazard rising with age), shape < 1 infant mortality.
func (r *RNG) Weibull(scale, shape float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return scale * math.Pow(-math.Log(u), 1/shape)
}

// Pareto returns a Pareto(xm, alpha) heavy-tailed value, xm the scale
// (minimum) and alpha the tail index: smaller alpha means heavier tail.
func (r *RNG) Pareto(xm, alpha float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}

// Perm returns a deterministic pseudo-random permutation of [0,n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Hash64 is a stateless splitmix64-style mixing function. It is used where
// a deterministic fingerprint of (seed, identity) is needed without touching
// any RNG stream — e.g. checkpoint-block checksums, which must not perturb
// the simulator's frozen stream-split order.
func Hash64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
