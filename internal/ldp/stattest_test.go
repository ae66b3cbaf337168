package ldp_test

import (
	"testing"

	"shuffledp/internal/ldp"
	"shuffledp/internal/rng"
	"shuffledp/internal/stattest"
)

// skewedValues draws a reproducible, head-heavy value distribution:
// two thirds of the mass on the first d/8 + 1 values.
func skewedValues(n, d int, seed uint64) []int {
	r := rng.New(seed)
	values := make([]int, n)
	for i := range values {
		v := r.Intn(d)
		if r.Intn(3) > 0 {
			v = r.Intn(1 + d/8)
		}
		values[i] = v
	}
	return values
}

// referenceTrial runs a baseline's reference randomizer on values with
// the trial seed.
func referenceTrial(values []int, estimate func(values []int, r *rng.Rand) []float64) stattest.Trial {
	return func(seed uint64) ([]float64, error) {
		return estimate(values, rng.New(seed)), nil
	}
}

// The Figure 3 baselines — Hadamard, RAP, RAP_R (RAP at twice the
// budget) and AUE — are simulated by the program and randomized only by
// their test references, so each reference's error must sit in the
// stattest band around the mechanism's analytic Variance, the formula
// the simulators behind Figure 3 trust. Hadamard aggregates through the
// FWHT, completely different from the count calibration the others
// share; AUE's estimates subtract the expected blanket mass, so a
// reference that dropped or duplicated increments would blow the band.
func TestStatisticalAcceptanceHadamard(t *testing.T) {
	const n, d, trials = 3000, 16, 4
	values := skewedValues(n, d, 15)
	truth := ldp.TrueFrequencies(values, d)
	h := ldp.NewHadamard(2)
	stattest.CheckMSE(t, h, truth, n, trials, 900, 3, referenceTrial(values, func(values []int, r *rng.Rand) []float64 {
		return ldp.HadamardEstimate(h, d, values, r)
	}))
}

func TestStatisticalAcceptanceRAP(t *testing.T) {
	const n, d, trials = 2000, 16, 4
	values := skewedValues(n, d, 16)
	truth := ldp.TrueFrequencies(values, d)
	u := ldp.NewRAP(2)
	stattest.CheckMSE(t, u, truth, n, trials, 1000, 3, referenceTrial(values, func(values []int, r *rng.Rand) []float64 {
		return ldp.RAPEstimate(u, d, values, r)
	}))
}

func TestStatisticalAcceptanceRAPR(t *testing.T) {
	const n, d, trials = 2000, 16, 4
	values := skewedValues(n, d, 17)
	truth := ldp.TrueFrequencies(values, d)
	u := ldp.NewRAP(2) // RAP_R at removal budget 1
	stattest.CheckMSE(t, u, truth, n, trials, 1100, 3, referenceTrial(values, func(values []int, r *rng.Rand) []float64 {
		return ldp.RAPEstimate(u, d, values, r)
	}))
}

func TestStatisticalAcceptanceAUE(t *testing.T) {
	const n, d, trials = 2000, 16, 4
	values := skewedValues(n, d, 18)
	truth := ldp.TrueFrequencies(values, d)
	a := ldp.NewAUE(3, 1e-9, n)
	stattest.CheckMSE(t, a, truth, n, trials, 1200, 3, referenceTrial(values, func(values []int, r *rng.Rand) []float64 {
		return ldp.AUEEstimate(a, d, values, r)
	}))
}

// The baselines must also be unbiased, not just noisy at the right
// magnitude (a wrong calibration constant could hide inside the MSE
// band at small n).
func TestUnbiasedHadamard(t *testing.T) {
	const n, d, trials = 1500, 16, 5
	values := skewedValues(n, d, 19)
	truth := ldp.TrueFrequencies(values, d)
	h := ldp.NewHadamard(2)
	stattest.CheckUnbiased(t, h, truth, n, trials, 1300, 6, referenceTrial(values, func(values []int, r *rng.Rand) []float64 {
		return ldp.HadamardEstimate(h, d, values, r)
	}))
}

func TestUnbiasedRAP(t *testing.T) {
	const n, d, trials = 1500, 16, 5
	values := skewedValues(n, d, 20)
	truth := ldp.TrueFrequencies(values, d)
	u := ldp.NewRAP(2)
	stattest.CheckUnbiased(t, u, truth, n, trials, 1400, 6, referenceTrial(values, func(values []int, r *rng.Rand) []float64 {
		return ldp.RAPEstimate(u, d, values, r)
	}))
}

func TestUnbiasedRAPR(t *testing.T) {
	const n, d, trials = 1500, 16, 5
	values := skewedValues(n, d, 21)
	truth := ldp.TrueFrequencies(values, d)
	u := ldp.NewRAP(2) // RAP_R at removal budget 1
	stattest.CheckUnbiased(t, u, truth, n, trials, 1500, 6, referenceTrial(values, func(values []int, r *rng.Rand) []float64 {
		return ldp.RAPEstimate(u, d, values, r)
	}))
}

func TestUnbiasedAUE(t *testing.T) {
	const n, d, trials = 1500, 16, 5
	values := skewedValues(n, d, 22)
	truth := ldp.TrueFrequencies(values, d)
	a := ldp.NewAUE(3, 1e-9, n)
	stattest.CheckUnbiased(t, a, truth, n, trials, 1600, 6, referenceTrial(values, func(values []int, r *rng.Rand) []float64 {
		return ldp.AUEEstimate(a, d, values, r)
	}))
}
