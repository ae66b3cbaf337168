package rng

import "math"

// ZipfWeights returns the unnormalized Zipf(s) weights 1/i^s for
// i = 1..k. These calibrate the synthetic IPUMS/Kosarak/AOL datasets
// (see DESIGN.md §2); the callers normalize as needed.
func ZipfWeights(k int, s float64) []float64 {
	if k <= 0 {
		panic("rng: ZipfWeights with k <= 0")
	}
	w := make([]float64, k)
	for i := range w {
		w[i] = math.Pow(float64(i+1), -s)
	}
	return w
}

// Zipf is an O(1)-per-sample Zipf(s) sampler over {0, ..., k-1} backed by
// an alias table (exact, in contrast to rejection-inversion approximations).
type Zipf struct {
	alias *Alias
}

// NewZipf builds a Zipf sampler with exponent s > 0 over k outcomes.
func NewZipf(k int, s float64) *Zipf {
	if s <= 0 {
		panic("rng: NewZipf with s <= 0")
	}
	return &Zipf{alias: NewAlias(ZipfWeights(k, s))}
}

// Sample draws a value in [0, k) with P(i) proportional to 1/(i+1)^s.
func (z *Zipf) Sample(r *Rand) int { return z.alias.Sample(r) }
