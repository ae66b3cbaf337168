package ldp

import (
	"math"

	"shuffledp/internal/rng"
)

// GRR is generalized randomized response (§II-B, Equation 1): the true
// value is reported with probability p = e^eps / (e^eps + d - 1) and any
// other fixed value with probability q = 1 / (e^eps + d - 1).
type GRR struct {
	d   int
	eps float64
	p   float64
	q   float64
}

// NewGRR returns a GRR oracle over a domain of size d with local budget
// eps.
func NewGRR(d int, eps float64) *GRR {
	validateDomain(d)
	validateEpsilon(eps)
	e := math.Exp(eps)
	return &GRR{
		d:   d,
		eps: eps,
		p:   e / (e + float64(d) - 1),
		q:   1 / (e + float64(d) - 1),
	}
}

// Name implements FrequencyOracle.
func (g *GRR) Name() string { return "GRR" }

// Domain implements FrequencyOracle.
func (g *GRR) Domain() int { return g.d }

// EpsilonLocal implements FrequencyOracle.
func (g *GRR) EpsilonLocal() float64 { return g.eps }

// Randomize implements FrequencyOracle.
func (g *GRR) Randomize(v int, r *rng.Rand) Report {
	validateValue(v, g.d)
	if r.Bernoulli(g.p) {
		return Report{Value: v}
	}
	// Uniform over the d-1 other values.
	y := r.Intn(g.d - 1)
	if y >= v {
		y++
	}
	return Report{Value: y}
}

// NewAggregator implements FrequencyOracle: a report supports its
// value, and Estimates is Equation (2), f~_v = (C_v/n - q) / (p - q).
func (g *GRR) NewAggregator() Aggregator {
	return newAccumulator(g, kindGRR, 0, g.p)
}

// Variance implements FrequencyOracle: Var = q(1-q) / (n (p-q)^2),
// the f_v-independent term of the variance in Proposition 4's proof.
func (g *GRR) Variance(n int) float64 {
	return g.q * (1 - g.q) / (float64(n) * (g.p - g.q) * (g.p - g.q))
}
