package ldp

import (
	"math"

	"shuffledp/internal/rng"
)

// AUE is the "appended unary encoding" mechanism of Balcer & Cheu
// (§IV-B4, [8]): each user submits their exact one-hot vector and, for
// every location independently, extra increments with total expectation
// gamma = 200 ln(4/delta) / (epsC^2 n). The noise increments from all
// users form the privacy blanket; the report itself is NOT locally
// private (EpsilonLocal returns 0), only the shuffled sum satisfies
// (epsC, delta)-DP.
//
// When gamma <= 1 each user adds one Bernoulli(gamma) increment per
// location (the paper's description). When n is too small for that
// (gamma > 1), the mechanism generalizes to ceil(gamma) independent
// Bernoulli(gamma/ceil(gamma)) increments: the per-location blanket is
// then Bin(n*rounds, gamma/rounds) with the same mean n*gamma, so the
// Theorem 1 guarantee — which depends only on that product — is
// preserved.
//
// Unlike the other oracles, AUE is parameterized directly by the central
// budget: NewAUE(d, epsC, delta, n).
type AUE struct {
	d      int
	gamma  float64 // expected increments per location per user
	rounds int     // independent Bernoulli rounds per location
	prob   float64 // per-round probability (gamma / rounds)
}

// NewAUE returns the Balcer–Cheu mechanism for n users targeting
// (epsC, delta)-DP after shuffling.
func NewAUE(d int, epsC, delta float64, n int) *AUE {
	validateDomain(d)
	validateEpsilon(epsC)
	if delta <= 0 || delta >= 1 {
		panic("ldp: delta must be in (0, 1)")
	}
	if n <= 0 {
		panic("ldp: AUE requires n > 0")
	}
	gamma := 200 * math.Log(4/delta) / (epsC * epsC * float64(n))
	rounds := 1
	if gamma > 1 {
		rounds = int(math.Ceil(gamma))
	}
	return &AUE{
		d:      d,
		gamma:  gamma,
		rounds: rounds,
		prob:   gamma / float64(rounds),
	}
}

// Name implements FrequencyOracle.
func (a *AUE) Name() string { return "AUE" }

// Domain implements FrequencyOracle.
func (a *AUE) Domain() int { return a.d }

// EpsilonLocal implements FrequencyOracle; AUE is not an LDP protocol
// (§IV-B4), so the local budget is reported as 0 (infinite disclosure:
// the true one-hot vector is always included).
func (a *AUE) EpsilonLocal() float64 { return 0 }

// Randomize implements FrequencyOracle. Bits[j] holds the number of
// increments the user contributes at location j: the true one-hot bit
// plus the blanket increments.
func (a *AUE) Randomize(v int, r *rng.Rand) Report {
	validateValue(v, a.d)
	bits := make([]byte, a.d)
	bits[v] = 1
	for j := range bits {
		for k := 0; k < a.rounds; k++ {
			if r.Bernoulli(a.prob) && bits[j] < 255 {
				bits[j]++
			}
		}
	}
	return Report{Bits: bits}
}

// NewAggregator implements FrequencyOracle: Bits[j] increments are
// added to location j's count, and Estimates subtracts the expected
// blanket mass, f~_v = C_v/n - gamma. AUE has no Support, so the
// calibration is set here; the scale is exactly 1, which
// (1+gamma) - gamma is not.
func (a *AUE) NewAggregator() Aggregator {
	acc := newAccumulator(a, kindAUE, a.rounds, a.gamma)
	acc.shift, acc.scale = a.gamma, 1
	return acc
}

// Variance implements FrequencyOracle: the blanket contributes
// Bin(n*rounds, prob) per location, so
// Var[f~_v] = rounds * prob * (1-prob) / n = gamma (1 - gamma/rounds)/n.
func (a *AUE) Variance(n int) float64 {
	return a.gamma * (1 - a.prob) / float64(n)
}
