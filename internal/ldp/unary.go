package ldp

import (
	"math"

	"shuffledp/internal/rng"
)

// UnaryEncoding is the symmetric unary-encoding (basic RAPPOR) family of
// §IV-B1. The value v becomes a length-d bit vector B with B[v] = 1, and
// every bit is flipped independently with probability flip.
//
// Two instantiations appear in the paper:
//
//   - RAP: flip = 1/(e^{eps/2} + 1), satisfying eps-LDP under the
//     replacement definition (two values differ in two bit positions, so
//     the budget is halved per bit). Use NewRAP.
//   - RAP_R (Erlingsson et al. 2020): flip = 1/(e^eps + 1), satisfying
//     eps-removal-LDP, which equals 2*eps replacement LDP (§IV-B4). Use
//     NewRAPR.
type UnaryEncoding struct {
	name string
	d    int
	eps  float64 // replacement-LDP budget the mechanism is labeled with
	flip float64 // per-bit flip probability
}

// NewRAP returns the symmetric unary-encoding oracle satisfying eps-LDP
// (replacement).
func NewRAP(d int, eps float64) *UnaryEncoding {
	validateDomain(d)
	validateEpsilon(eps)
	return &UnaryEncoding{
		name: "RAP",
		d:    d,
		eps:  eps,
		flip: 1 / (math.Exp(eps/2) + 1),
	}
}

// NewRAPR returns the removal-LDP unary-encoding oracle with budget eps:
// each bit keeps the full budget. As §IV-B4 notes, it is 2*eps
// replacement-LDP, so it matches NewRAP(d, 2*eps) exactly.
func NewRAPR(d int, eps float64) *UnaryEncoding {
	validateDomain(d)
	validateEpsilon(eps)
	return &UnaryEncoding{
		name: "RAP_R",
		d:    d,
		eps:  eps,
		flip: 1 / (math.Exp(eps) + 1),
	}
}

// Name implements FrequencyOracle.
func (u *UnaryEncoding) Name() string { return u.name }

// Domain implements FrequencyOracle.
func (u *UnaryEncoding) Domain() int { return u.d }

// EpsilonLocal implements FrequencyOracle. For RAP_R this is the
// equivalent replacement-LDP budget (2x the removal budget).
func (u *UnaryEncoding) EpsilonLocal() float64 {
	if u.name == "RAP_R" {
		return 2 * u.eps
	}
	return u.eps
}

// Randomize implements FrequencyOracle: one perturbed bit per domain
// element.
func (u *UnaryEncoding) Randomize(v int, r *rng.Rand) Report {
	validateValue(v, u.d)
	bits := make([]byte, u.d)
	for j := range bits {
		b := byte(0)
		if j == v {
			b = 1
		}
		if r.Bernoulli(u.flip) {
			b = 1 - b
		}
		bits[j] = b
	}
	return Report{Bits: bits}
}

// NewAggregator implements FrequencyOracle: a report supports every
// location whose bit is set, calibrated with p = 1 - flip and q = flip.
func (u *UnaryEncoding) NewAggregator() Aggregator {
	return newAccumulator(u, kindUnary, 0, u.flip)
}

// Variance implements FrequencyOracle. With p = 1-flip and q = flip the
// calibrated estimator has Var = q(1-q)/(n (p-q)^2), which for RAP
// reduces to e^{eps/2} / (n (e^{eps/2}-1)^2), the expression used in
// Proposition 5.
func (u *UnaryEncoding) Variance(n int) float64 {
	p, q := 1-u.flip, u.flip
	return q * (1 - q) / (float64(n) * (p - q) * (p - q))
}
