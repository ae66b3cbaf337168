package ldp

import (
	"math"

	"shuffledp/internal/rng"
)

// OUE is the Optimized Unary Encoding of Wang et al. (USENIX Security
// 2017) — the asymmetric-flip variant that minimizes LDP variance:
// the 1-bit is transmitted truthfully with probability 1/2, and each
// 0-bit flips to 1 with probability 1/(e^eps + 1).
//
// It completes the [54] oracle family this paper builds on. Note the
// shuffle-model amplification of Theorem 2 is proven for the SYMMETRIC
// unary encoding (RAP); OUE's asymmetric flips break the
// privacy-blanket decomposition, so OUE here is an LDP-only mechanism
// (it appears in ablations, not in the paper's shuffle lineup).
type OUE struct {
	d   int
	eps float64
	p   float64 // P(1 -> 1) = 1/2
	q   float64 // P(0 -> 1) = 1/(e^eps+1)
}

// NewOUE returns the OUE oracle over a domain of size d with local
// budget eps.
func NewOUE(d int, eps float64) *OUE {
	validateDomain(d)
	validateEpsilon(eps)
	return &OUE{
		d:   d,
		eps: eps,
		p:   0.5,
		q:   1 / (math.Exp(eps) + 1),
	}
}

// Name implements FrequencyOracle.
func (o *OUE) Name() string { return "OUE" }

// Domain implements FrequencyOracle.
func (o *OUE) Domain() int { return o.d }

// EpsilonLocal implements FrequencyOracle.
func (o *OUE) EpsilonLocal() float64 { return o.eps }

// Randomize implements FrequencyOracle.
func (o *OUE) Randomize(v int, r *rng.Rand) Report {
	validateValue(v, o.d)
	bits := make([]byte, o.d)
	for j := range bits {
		if j == v {
			if r.Bernoulli(o.p) {
				bits[j] = 1
			}
		} else if r.Bernoulli(o.q) {
			bits[j] = 1
		}
	}
	return Report{Bits: bits}
}

// NewAggregator implements FrequencyOracle: a report supports every
// location whose bit is set, calibrated with p = 1/2 and
// q = 1/(e^eps + 1).
func (o *OUE) NewAggregator() Aggregator {
	return newAccumulator(o, kindOUE, 0, o.q)
}

// Variance implements FrequencyOracle: 4 e^eps / (n (e^eps - 1)^2),
// the optimum over unary-encoding flip choices ([54], Eq. 8).
func (o *OUE) Variance(n int) float64 {
	e := math.Exp(o.eps)
	return 4 * e / (float64(n) * (e - 1) * (e - 1))
}
