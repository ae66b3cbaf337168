package ldp

import (
	"math"

	"shuffledp/internal/hash"
	"shuffledp/internal/rng"
)

// Hadamard is the Hadamard response mechanism ("Had" in §VII-B,
// Acharya et al. 2019). It behaves like local hashing with d' = 2 — each
// user samples a random row a of the D x D Hadamard matrix (D the next
// power of two > d), computes the sign bit H[a, v+1], and reports it
// through binary randomized response — but the server can aggregate all
// reports with one fast Walsh–Hadamard transform in O(D log D) instead of
// O(n*d) hash evaluations.
//
// Values are mapped to columns 1..d (column 0 is the all-ones row and
// carries no information).
type Hadamard struct {
	d   int
	D   int // power-of-two Hadamard order, > d
	eps float64
	p   float64 // probability of reporting the true bit
}

// NewHadamard returns a Hadamard response oracle over domain size d with
// local budget eps.
func NewHadamard(d int, eps float64) *Hadamard {
	validateDomain(d)
	validateEpsilon(eps)
	e := math.Exp(eps)
	return &Hadamard{
		d:   d,
		D:   hash.NextPow2(d + 1),
		eps: eps,
		p:   e / (e + 1),
	}
}

// Name implements FrequencyOracle.
func (h *Hadamard) Name() string { return "Had" }

// Domain implements FrequencyOracle.
func (h *Hadamard) Domain() int { return h.d }

// EpsilonLocal implements FrequencyOracle.
func (h *Hadamard) EpsilonLocal() float64 { return h.eps }

// Randomize implements FrequencyOracle. Report.Seed is the sampled row
// index; Report.Value is the (possibly flipped) sign bit encoded as
// 1 for +1 and 0 for -1.
func (h *Hadamard) Randomize(v int, r *rng.Rand) Report {
	validateValue(v, h.d)
	row := uint32(r.Uint64n(uint64(h.D)))
	bit := hash.HadamardEntry(uint64(row), uint64(v+1)) // column v+1
	if !r.Bernoulli(h.p) {
		bit = -bit
	}
	val := 0
	if bit == 1 {
		val = 1
	}
	return Report{Seed: row, Value: val}
}

// NewAggregator implements FrequencyOracle.
func (h *Hadamard) NewAggregator() Aggregator {
	return &hadamardAggregator{h: h, rowSums: make([]float64, h.D)}
}

// Variance implements FrequencyOracle. Hadamard response is local
// hashing with d' = 2, so Equation (4) gives
// Var = (e^eps + 1)^2 / (n (e^eps - 1)^2).
func (h *Hadamard) Variance(n int) float64 {
	e := math.Exp(h.eps)
	return (e + 1) * (e + 1) / (float64(n) * (e - 1) * (e - 1))
}

type hadamardAggregator struct {
	h       *Hadamard
	rowSums []float64 // sum of reported signs per sampled row
	n       int
}

// Add implements Aggregator.
func (a *hadamardAggregator) Add(rep Report) {
	if int(rep.Seed) >= a.h.D {
		panic("ldp: Hadamard row out of range")
	}
	sign := -1.0
	if rep.Value == 1 {
		sign = 1.0
	}
	a.rowSums[rep.Seed] += sign
	a.n++
}

// Count implements Aggregator.
func (a *hadamardAggregator) Count() int { return a.n }

// Merge implements Aggregator. Row sums are sums of ±1 terms — exact
// integers in float64 — so merging is bit-exact in any order.
func (a *hadamardAggregator) Merge(other Aggregator) {
	o, ok := other.(*hadamardAggregator)
	if !ok || o.h.D != a.h.D || o.h.p != a.h.p {
		panic("ldp: merging incompatible Hadamard aggregators")
	}
	for row, s := range o.rowSums {
		a.rowSums[row] += s
	}
	a.n += o.n
	o.rowSums, o.n = nil, 0
}

// Clone implements Aggregator.
func (a *hadamardAggregator) Clone() Aggregator {
	return &hadamardAggregator{
		h:       a.h,
		rowSums: append([]float64(nil), a.rowSums...),
		n:       a.n,
	}
}

// Estimates aggregates with one FWHT: the transform of the per-row sign
// sums evaluates, for every column c, the statistic
// S_c = sum_i y_i * H[a_i, c]; then f~_v = D/n * S_{v+1} / (2p - 1).
func (a *hadamardAggregator) Estimates() []float64 {
	est := make([]float64, a.h.d)
	if a.n == 0 {
		return est
	}
	spectrum := append([]float64(nil), a.rowSums...)
	hash.FWHT(spectrum)
	// E[y_i * H[a_i, c]] = (2p-1) * 1{c = v_i+1} over a uniform row a_i,
	// so E[S_{v+1}] = n_v (2p-1) and dividing by n(2p-1) is unbiased.
	scale := 1 / (float64(a.n) * (2*a.h.p - 1))
	for v := 0; v < a.h.d; v++ {
		est[v] = spectrum[v+1] * scale
	}
	return est
}
