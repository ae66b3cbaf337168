// Package amplify implements the privacy-amplification analysis of the
// shuffle model: the amplification bounds for GRR ([9], Table I), unary
// encoding (Theorem 2) and SOLH (Theorem 3), which all rest on the
// binomial mechanism (Theorem 1), their inversions (given a target
// central epsilon, derive the local budget), the GRR and SOLH variance
// expressions of §IV-B3 (Propositions 4 and 6), the optimal
// hashed-domain size d' (Equation 5), the PEOS
// guarantees (Corollaries 8 and 9), and the planners: PlanShuffle for
// one shuffle of the basic model, PlanPEOS for §VI-D.
//
// Everything here is deterministic closed-form math, which keeps each
// theorem independently unit-testable.
package amplify

import (
	"errors"
	"fmt"
	"math"
)

// ErrNoAmplification is returned when the requested central budget is
// below the threshold at which the shuffle bound is valid (for GRR:
// epsC < sqrt(14 ln(2/delta) d / (n-1)), the "no amplification" regime
// visible in Figure 3's SH curve).
var ErrNoAmplification = errors.New("amplify: no amplification possible at this budget")

func validate(n int, delta float64) {
	if n < 2 {
		panic("amplify: need n >= 2 users")
	}
	if delta <= 0 || delta >= 1 {
		panic("amplify: delta must be in (0, 1)")
	}
}

// CentralEpsilonGRR is the amplification bound of [9] (Table I, last
// row) for epsL-LDP GRR over domain size d shuffled among n users:
// epsC = sqrt(14 ln(2/delta) (e^epsL + d - 1) / (n - 1)).
func CentralEpsilonGRR(epsL float64, d, n int, delta float64) float64 {
	validate(n, delta)
	return math.Sqrt(14 * math.Log(2/delta) * (math.Exp(epsL) + float64(d) - 1) / float64(n-1))
}

// CentralEpsilonSOLH is Theorem 3: epsL-LDP SOLH with hashed domain d'
// shuffled among n users satisfies
// epsC = sqrt(14 ln(2/delta) (e^epsL + d' - 1) / (n - 1)).
func CentralEpsilonSOLH(epsL float64, dPrime, n int, delta float64) float64 {
	validate(n, delta)
	if dPrime < 2 {
		panic("amplify: d' must be >= 2")
	}
	return math.Sqrt(14 * math.Log(2/delta) * (math.Exp(epsL) + float64(dPrime) - 1) / float64(n-1))
}

// CentralEpsilonUnary is Theorem 2: an epsL-LDP unary-encoding method
// (per-bit budget epsL/2) satisfies
// epsC = 2 sqrt(14 ln(4/delta) (e^{epsL/2} + 1) / (n - 1)).
func CentralEpsilonUnary(epsL float64, n int, delta float64) float64 {
	validate(n, delta)
	return 2 * math.Sqrt(14*math.Log(4/delta)*(math.Exp(epsL/2)+1)/float64(n-1))
}

// CentralEpsilonEFMRTT is the Erlingsson et al. (SODA 2019) bound from
// Table I: epsC = sqrt(144 ln(1/delta)) * epsL / sqrt(n), valid for
// epsL < 1/2. ok reports whether the condition holds.
func CentralEpsilonEFMRTT(epsL float64, n int, delta float64) (epsC float64, ok bool) {
	validate(n, delta)
	epsC = math.Sqrt(144*math.Log(1/delta)) * epsL / math.Sqrt(float64(n))
	return epsC, epsL < 0.5
}

// CentralEpsilonCSUZZ is the Cheu et al. (EUROCRYPT 2019) bound from
// Table I for binary randomized response:
// epsC = sqrt(32 ln(4/delta) (e^epsL + 1) / n), valid when
// sqrt(192/n ln(4/delta)) <= epsC < 1. ok reports whether the bound's
// validity condition holds.
func CentralEpsilonCSUZZ(epsL float64, n int, delta float64) (epsC float64, ok bool) {
	validate(n, delta)
	epsC = math.Sqrt(32 * math.Log(4/delta) * (math.Exp(epsL) + 1) / float64(n))
	low := math.Sqrt(192 / float64(n) * math.Log(4/delta))
	return epsC, epsC >= low && epsC < 1
}

// BlanketM returns m = epsC^2 (n-1) / (14 ln(2/delta)), the value the
// quantity e^epsL + d' - 1 must take to hit the target central budget
// (the inversion of Theorem 3 / the GRR bound). m is the paper's
// shorthand in §IV-B3.
func BlanketM(epsC float64, n int, delta float64) float64 {
	validate(n, delta)
	if epsC <= 0 {
		panic("amplify: epsC must be > 0")
	}
	return epsC * epsC * float64(n-1) / (14 * math.Log(2/delta))
}

// OptimalDPrime is Equation (5): d' = floor((m+2)/3) minimizes the SOLH
// variance Var(m, d') = m^2 / (n (m-d')^2 (d'-1)) at fixed m, clamped to
// [2, maxD] (hashing into more buckets than the value domain d wastes
// budget, and d' < 2 carries no information).
func OptimalDPrime(m float64, maxD int) int {
	dPrime := int(math.Floor((m + 2) / 3))
	if dPrime < 2 {
		dPrime = 2
	}
	if maxD >= 2 && dPrime > maxD {
		dPrime = maxD
	}
	return dPrime
}

// LocalEpsilonSOLH inverts Theorem 3: the local budget achieving target
// epsC with hashed-domain size dPrime: e^epsL = m - d' + 1.
// Returns ErrNoAmplification when m <= d' (no positive local budget
// exists at this target).
func LocalEpsilonSOLH(epsC float64, dPrime, n int, delta float64) (float64, error) {
	m := BlanketM(epsC, n, delta)
	eL := m - float64(dPrime) + 1
	if eL <= 1 {
		return 0, fmt.Errorf("%w: m=%.3f <= d'=%d", ErrNoAmplification, m, dPrime)
	}
	return math.Log(eL), nil
}

// LocalEpsilonGRR inverts the GRR amplification bound: e^epsL = m-d+1.
// In the regime m <= d (epsC below sqrt(14 ln(2/delta) d/(n-1))) there
// is no amplification and the SH baseline falls back to epsL = epsC
// (§VII-B); this function returns ErrNoAmplification so callers can
// decide.
func LocalEpsilonGRR(epsC float64, d, n int, delta float64) (float64, error) {
	m := BlanketM(epsC, n, delta)
	eL := m - float64(d) + 1
	if eL <= 1 {
		return 0, fmt.Errorf("%w: m=%.3f <= d=%d", ErrNoAmplification, m, d)
	}
	return math.Log(eL), nil
}

// LocalEpsilonUnary inverts Theorem 2: e^{epsL/2} + 1 =
// epsC^2 (n-1) / (56 ln(4/delta)).
func LocalEpsilonUnary(epsC float64, n int, delta float64) (float64, error) {
	validate(n, delta)
	if epsC <= 0 {
		panic("amplify: epsC must be > 0")
	}
	mm := epsC * epsC * float64(n-1) / (56 * math.Log(4/delta))
	if mm <= 2 {
		return 0, fmt.Errorf("%w: unary M=%.3f <= 2", ErrNoAmplification, mm)
	}
	return 2 * math.Log(mm-1), nil
}

// VarianceGRR is Proposition 4: at fixed epsC, GRR's estimation variance
// is (m-1) / (n (m-d)^2). Only valid when m > d.
func VarianceGRR(epsC float64, d, n int, delta float64) (float64, error) {
	m := BlanketM(epsC, n, delta)
	if m <= float64(d) {
		return 0, fmt.Errorf("%w: m=%.3f <= d=%d", ErrNoAmplification, m, d)
	}
	md := m - float64(d)
	return (m - 1) / (float64(n) * md * md), nil
}

// VarianceSOLHAt is Proposition 6 at an explicit d':
// Var(m, d') = m^2 / (n (m-d')^2 (d'-1)).
func VarianceSOLHAt(m float64, dPrime, n int) (float64, error) {
	if dPrime < 2 {
		return 0, errors.New("amplify: d' must be >= 2")
	}
	md := m - float64(dPrime)
	if md <= 0 {
		return 0, fmt.Errorf("%w: m=%.3f <= d'=%d", ErrNoAmplification, m, dPrime)
	}
	return m * m / (float64(n) * md * md * float64(dPrime-1)), nil
}

// VarianceSOLH is Proposition 6 with the optimal d' of Equation (5):
// the best variance SOLH can achieve at target epsC. It also returns
// the chosen d'.
func VarianceSOLH(epsC float64, d, n int, delta float64) (v float64, dPrime int, err error) {
	m := BlanketM(epsC, n, delta)
	dPrime = OptimalDPrime(m, d)
	v, err = VarianceSOLHAt(m, dPrime, n)
	return v, dPrime, err
}

// PreferGRR reports whether GRR beats SOLH at the given target (§IV-B3
// "Comparison of the Methods"): both variances are computed and the
// smaller wins. GRR can only win when d is small.
func PreferGRR(epsC float64, d, n int, delta float64) bool {
	vg, errG := VarianceGRR(epsC, d, n, delta)
	vs, _, errS := VarianceSOLH(epsC, d, n, delta)
	if errG != nil {
		return false
	}
	if errS != nil {
		return true
	}
	return vg < vs
}
