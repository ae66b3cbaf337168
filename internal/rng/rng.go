// Package rng provides deterministic, seedable pseudo-random number
// generation and the samplers the rest of the repository builds on:
// Bernoulli, exact binomial (BINV/BTPE), Laplace, Zipf, and Walker alias
// tables for arbitrary discrete distributions.
//
// Experiments use rng for reproducibility; protocol cryptography uses
// crypto/rand instead (see internal/ahe, internal/ecies).
//
// The core generator is xoshiro256**, seeded through splitmix64 so that
// any 64-bit seed (including 0) yields a well-mixed state.
package rng

import (
	"math"
	"math/bits"
)

// Rand is a deterministic pseudo-random generator (xoshiro256**).
// It is NOT safe for concurrent use; give each goroutine its own Rand
// (see Split).
type Rand struct {
	s [4]uint64
}

// splitmix64 advances *x and returns the next splitmix64 output.
// It is used only for seeding.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from the given 64-bit seed.
func New(seed uint64) *Rand {
	r := &Rand{}
	x := seed
	for i := range r.s {
		r.s[i] = splitmix64(&x)
	}
	// xoshiro256** requires a nonzero state; splitmix64 guarantees the
	// four outputs are not all zero for any seed, but be defensive.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

// Substream returns the generator for stream number `stream` of the
// given user seed. The derivation is a pure function of (seed, stream):
// shard s of a computation always sees the same random stream no matter
// how many workers run, which is what makes the parallel estimation
// engine reproducible independent of concurrency. Distinct (seed,
// stream) pairs are decorrelated by two rounds of splitmix64 mixing.
func Substream(seed, stream uint64) *Rand {
	x := seed
	a := splitmix64(&x)
	x = a ^ (stream * 0x9e3779b97f4a7c15)
	return New(splitmix64(&x))
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *Rand) Uint64() uint64 {
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

// Uint64n returns a uniform value in [0, n). It panics if n == 0.
// Lemire's multiply-shift rejection method avoids modulo bias, in its
// nearly-divisionless form: the rejection threshold (2^64 - n) mod n is
// below n, so a draw whose low word is at least n is accepted without
// computing it, and the division runs only for the rare draw that
// lands in [0, n). Outputs and stream consumption are those of the
// plain form that computes the threshold first.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with n == 0")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		threshold := -n % n // == (2^64 - n) mod n
		for lo < threshold {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bernoulli returns true with probability p (clamped to [0, 1]).
func (r *Rand) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Perm returns a uniformly random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := 1; i < n; i++ {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle performs a Fisher–Yates shuffle of n elements using swap.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Laplace returns a Laplace(0, scale) variate.
func (r *Rand) Laplace(scale float64) float64 {
	// Difference of two exponentials has a Laplace distribution; the
	// inverse-CDF form below needs one uniform only.
	u := r.Float64() - 0.5
	if u >= 0 {
		return -scale * math.Log(1-2*u)
	}
	return scale * math.Log(1+2*u)
}
