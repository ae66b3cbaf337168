package ldp

import "math"

// AUE is the "appended unary encoding" mechanism of Balcer & Cheu
// (§IV-B4, [8]), a Figure 3 baseline: each user submits their exact
// one-hot vector and, for every location independently, extra
// increments with total expectation gamma = 200 ln(4/delta) / (epsC^2 n).
// The noise increments from all users form the privacy blanket; the
// report itself is NOT locally private (EpsilonLocal returns 0), only
// the shuffled sum satisfies (epsC, delta)-DP.
//
// When gamma <= 1 each user adds one Bernoulli(gamma) increment per
// location (the paper's description). When n is too small for that
// (gamma > 1), the mechanism generalizes to ceil(gamma) independent
// Bernoulli(gamma/ceil(gamma)) increments: the per-location blanket is
// then Bin(n*rounds, gamma/rounds) with the same mean n*gamma, so the
// Theorem 1 guarantee — which depends only on that product — is
// preserved. The estimate of value v is f~_v = C_v/n - gamma, C_v the
// increments at location v (see SimulateAUE).
//
// Unlike the other mechanisms, AUE is parameterized directly by the
// central budget: NewAUE(epsC, delta, n).
type AUE struct {
	gamma  float64 // expected increments per location per user
	rounds int     // independent Bernoulli rounds per location
	prob   float64 // per-round probability (gamma / rounds)
}

// NewAUE returns the Balcer–Cheu mechanism for n users targeting
// (epsC, delta)-DP after shuffling.
func NewAUE(epsC, delta float64, n int) *AUE {
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
		gamma:  gamma,
		rounds: rounds,
		prob:   gamma / float64(rounds),
	}
}

// EpsilonLocal implements Mechanism; AUE is not an LDP protocol
// (§IV-B4), so the local budget is reported as 0 (infinite disclosure:
// the true one-hot vector is always included).
func (a *AUE) EpsilonLocal() float64 { return 0 }

// Variance implements Mechanism: the blanket contributes
// Bin(n*rounds, prob) per location, so
// Var[f~_v] = rounds * prob * (1-prob) / n = gamma (1 - gamma/rounds)/n.
func (a *AUE) Variance(n int) float64 {
	return a.gamma * (1 - a.prob) / float64(n)
}
