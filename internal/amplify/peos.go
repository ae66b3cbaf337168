package amplify

import (
	"errors"
	"fmt"
	"math"
)

// PEOS privacy and utility analysis (§VI-B and §VI-C).

// PEOSGuarantees collects the three privacy levels of a PEOS deployment
// against the three adversaries of §V-A.
type PEOSGuarantees struct {
	// EpsC bounds the view of the server alone (Adv).
	EpsC float64
	// EpsS bounds the view of the server colluding with all other
	// users (Adv_u); only the n_r fake reports protect the victim.
	EpsS float64
	// EpsL is the local randomizer's budget, the only protection left
	// against the server colluding with ceil(r/2) or more shufflers
	// (Adv_a): a coalition that size holds a hider of every EOS round,
	// so it knows the composite permutation. At r = 2 that is one
	// shuffler.
	EpsL float64
}

// PEOSEpsilons evaluates Corollary 8 (outputSpace = d' of SOLH) or
// Corollary 9 (outputSpace = d for GRR): with n users running an
// epsL-LDP oracle and nr uniform fake reports,
//
//	epsS = sqrt(14 ln(2/delta) * outputSpace / nr)
//	epsC = sqrt(14 ln(2/delta) / ((n-1)/(e^epsL+outputSpace-1) + nr/outputSpace))
//
// Near epsS = 4 the epsS constant bounds nothing (fakesonly.go); the
// planners only plan an nr at which the exact fakes-only view holds it.
func PEOSEpsilons(epsL float64, outputSpace, n, nr int, delta float64) PEOSGuarantees {
	validate(n, delta)
	if outputSpace < 2 {
		panic("amplify: output space must be >= 2")
	}
	if nr <= 0 {
		panic("amplify: PEOS needs nr > 0 fake reports")
	}
	L := 14 * math.Log(2/delta)
	os := float64(outputSpace)
	epsS := math.Sqrt(L * os / float64(nr))
	blanket := float64(n-1)/(math.Exp(epsL)+os-1) + float64(nr)/os
	epsC := math.Sqrt(L / blanket)
	return PEOSGuarantees{EpsC: epsC, EpsS: epsS, EpsL: epsL}
}

// PEOSOptimalDPrime is the §VI-C optimum: with a = 14 ln(2/delta)/epsC^2
// and b = n-1, the variance-minimizing hashed domain is
// d' = ((b + nr)/a + 2) / 3, clamped to [2, maxD].
//
// (The paper's inline text prints "n-1-nr"; the derivation in the same
// paragraph — maximize (d' - (b+nr)/a)^2 (d'-1) — yields b+nr. See
// DESIGN.md §3.)
func PEOSOptimalDPrime(epsC float64, n, nr, maxD int, delta float64) int {
	validate(n, delta)
	a := 14 * math.Log(2/delta) / (epsC * epsC)
	b := float64(n - 1)
	dPrime := int(math.Floor(((b+float64(nr))/a + 2) / 3))
	if dPrime < 2 {
		dPrime = 2
	}
	if maxD >= 2 && dPrime > maxD {
		dPrime = maxD
	}
	return dPrime
}

// PEOSLocalEpsilon inverts Corollary 8/9 for epsL: given the target
// epsC, the output-space size, and nr fakes,
//
//	e^epsL + outputSpace - 1 = (n-1) / (a - nr/outputSpace) =: m
//
// with a = 14 ln(2/delta)/epsC^2. Errors when the fakes alone already
// exceed the budget (a <= nr/outputSpace) or no positive epsL exists.
func PEOSLocalEpsilon(epsC float64, outputSpace, n, nr int, delta float64) (epsL, m float64, err error) {
	validate(n, delta)
	if outputSpace < 2 {
		return 0, 0, errors.New("amplify: output space must be >= 2")
	}
	a := 14 * math.Log(2/delta) / (epsC * epsC)
	denom := a - float64(nr)/float64(outputSpace)
	if denom <= 0 {
		return 0, 0, fmt.Errorf("amplify: nr=%d fakes already exceed epsC=%.3f", nr, epsC)
	}
	m = float64(n-1) / denom
	eL := m - float64(outputSpace) + 1
	if eL <= 1 {
		return 0, m, fmt.Errorf("%w: m=%.3f <= outputSpace=%d", ErrNoAmplification, m, outputSpace)
	}
	return math.Log(eL), m, nil
}

// PEOSVariance is the §VI-C utility, the variance of the estimator
// protocol.Estimate computes, (C_v - n q - nr U)/(n (p - q)), for a
// value no user holds (f_v -> 0, the paper's form):
//
//	Var[f'] = (n q(1-q) + nr U(1-U)) / (n^2 (p-q)^2)
//
// with m = e^epsL + outputSpace - 1. A real report that does not hold
// the value supports it with probability q, a fake — uniform over the
// report space — with U (ldp.Support), the dummy-point accounting of
// Li et al. (DUMP). For SOLH (outputSpace = d') q = U = 1/d', so a
// fake costs what a real report does: (n+nr) m^2 / (n^2 (m-d')^2
// (d'-1)). For GRR q = 1/m but U = 1/d, so one fake costs about
// m(d-1)/d^2 real reports: (n(m-1) + nr m^2 (d-1)/d^2) / (n^2 (m-d)^2).
// grr selects which estimator's variance shape to use.
func PEOSVariance(m float64, outputSpace, n, nr int, grr bool) (float64, error) {
	if outputSpace < 2 {
		return 0, errors.New("amplify: output space must be >= 2")
	}
	os := float64(outputSpace)
	md := m - os
	if md <= 0 {
		return 0, fmt.Errorf("%w: m=%.3f <= outputSpace=%d", ErrNoAmplification, m, outputSpace)
	}
	nn := float64(n) * float64(n)
	if grr {
		return (float64(n)*(m-1) + float64(nr)*m*m*(os-1)/(os*os)) / (nn * md * md), nil
	}
	return float64(n+nr) / nn * m * m / (md * md * (os - 1)), nil
}
