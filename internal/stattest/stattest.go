// Package stattest is the statistical acceptance-test harness for the
// repository's estimators: it turns "the histogram looks right" into a
// checkable bound by comparing the empirical error of an estimator
// against the oracle's analytic LDP variance (Equation (4) and friends,
// exposed as ldp.Mechanism.Variance).
//
// The core check runs a fixed number of fixed-seed trials of an
// arbitrary estimator (typically a full pipeline: randomize, encrypt,
// stream through internal/service, drain) and requires the mean squared
// error against the true frequencies to sit inside a k-factor band
// around the analytic variance:
//
//	Var(n)/k  <=  mean MSE  <=  k * Var(n)
//
// The upper bound catches broken estimators (wrong calibration, lost or
// duplicated reports, a decrypt path that corrupts values); the lower
// bound catches estimators that are "too good" — a pipeline that
// accidentally skips randomization would sail under any upper bound
// while silently destroying the privacy guarantee. Because every trial
// is seeded, the check is deterministic: it either always passes or
// always fails for a given build, so it is safe in tier-1 CI.
package stattest

import (
	"fmt"
	"math"

	"shuffledp/internal/ldp"
)

// TB is the subset of testing.TB the harness needs. Taking the
// interface (rather than *testing.T) keeps the harness usable from
// tests, benchmarks, and fuzz targets alike, and lets the harness test
// itself with a recording fake.
type TB interface {
	Helper()
	Logf(format string, args ...any)
	Fatalf(format string, args ...any)
}

// Trial produces one independent estimate of the true frequencies.
// Each trial receives its own seed; the estimate must be a pure
// function of it (that is what makes the whole check deterministic).
type Trial func(seed uint64) ([]float64, error)

// Result summarizes a CheckMSE run, for logging and for tests that
// want to assert on the ratio themselves.
type Result struct {
	// Trials is how many estimates were averaged.
	Trials int
	// MeanMSE is the empirical mean squared error against truth,
	// averaged over the domain and the trials.
	MeanMSE float64
	// AnalyticVar is the oracle's predicted per-value estimator
	// variance at this n.
	AnalyticVar float64
	// Ratio is MeanMSE / AnalyticVar; CheckMSE requires it in
	// [1/k, k].
	Ratio float64
}

// MSE returns the mean squared error between two frequency vectors.
func MSE(truth, est []float64) float64 {
	if len(truth) != len(est) {
		panic(fmt.Sprintf("stattest: MSE over %d-value truth and %d-value estimate", len(truth), len(est)))
	}
	return ldp.MSE(truth, est)
}

// CheckMSE runs trials fixed-seed estimates (trial t uses baseSeed+t),
// averages their MSE against truth, and fails tb unless the mean lands
// within a factor k of the analytic variance m.Variance(n). n is the
// number of reports each trial aggregates (the n the variance formula
// is evaluated at). The passing Result is returned and logged so test
// output records how much slack the bound had.
//
// Choosing k: the analytic formulas are the frequency-independent
// variance term, so the true expected MSE exceeds Variance(n) slightly
// (by O(f_v/n) terms) and the empirical mean fluctuates with
// 1/sqrt(trials * d). k = 3 comfortably brackets both effects for
// d >= 16 and trials >= 3 while still failing hard on real defects,
// which are never within 3x (a lost batch of reports or a mis-scaled
// calibration moves the MSE by orders of magnitude).
func CheckMSE(tb TB, m ldp.Mechanism, truth []float64, n, trials int, baseSeed uint64, k float64, run Trial) Result {
	tb.Helper()
	if trials < 1 {
		tb.Fatalf("stattest: CheckMSE needs at least 1 trial")
		return Result{}
	}
	if k <= 1 {
		tb.Fatalf("stattest: CheckMSE tolerance factor k must be > 1, got %v", k)
		return Result{}
	}
	if !truthFitsDomain(tb, m, truth) {
		return Result{}
	}
	variance := m.Variance(n)
	if !(variance > 0) || math.IsInf(variance, 0) {
		tb.Fatalf("stattest: %T has non-positive analytic variance %v at n=%d", m, variance, n)
		return Result{}
	}
	sum := 0.0
	for t := 0; t < trials; t++ {
		est, err := run(baseSeed + uint64(t))
		// A TB whose Fatalf returns (the harness's own tests use one)
		// must not fall through to math over a bad estimate, hence the
		// explicit returns.
		if err != nil {
			tb.Fatalf("stattest: trial %d: %v", t, err)
			return Result{}
		}
		if len(est) != len(truth) {
			tb.Fatalf("stattest: trial %d returned %d estimates, want %d", t, len(est), len(truth))
			return Result{}
		}
		for _, e := range est {
			if math.IsNaN(e) || math.IsInf(e, 0) {
				tb.Fatalf("stattest: trial %d returned a non-finite estimate", t)
				return Result{}
			}
		}
		sum += MSE(truth, est)
	}
	res := Result{
		Trials:      trials,
		MeanMSE:     sum / float64(trials),
		AnalyticVar: variance,
	}
	res.Ratio = res.MeanMSE / variance
	if res.Ratio > k {
		tb.Fatalf("stattest: %T mean MSE %.3e is %.2fx the analytic variance %.3e (limit %vx): estimator is broken or mis-calibrated",
			m, res.MeanMSE, res.Ratio, variance, k)
		return res
	}
	if res.Ratio < 1/k {
		tb.Fatalf("stattest: %T mean MSE %.3e is only %.3fx the analytic variance %.3e (floor %.3fx): estimate is implausibly accurate — is the randomizer actually running?",
			m, res.MeanMSE, res.Ratio, variance, 1/k)
		return res
	}
	tb.Logf("stattest: %T mean MSE %.3e over %d trials, analytic variance %.3e, ratio %.2f (allowed [%.2f, %.2f])",
		m, res.MeanMSE, trials, variance, res.Ratio, 1/k, k)
	return res
}

// CheckUnbiased averages the trials' estimates value-by-value and fails
// tb if any mean deviates from the truth by more than k standard
// errors of the trial mean (sqrt(Var(n)/trials)). It is the complement
// of CheckMSE: CheckMSE bounds the noise magnitude, CheckUnbiased
// catches systematic bias that hides inside an acceptable MSE (for
// example a calibration using a slightly wrong p).
func CheckUnbiased(tb TB, m ldp.Mechanism, truth []float64, n, trials int, baseSeed uint64, k float64, run Trial) {
	tb.Helper()
	if trials < 2 {
		tb.Fatalf("stattest: CheckUnbiased needs at least 2 trials")
		return
	}
	if !truthFitsDomain(tb, m, truth) {
		return
	}
	mean := make([]float64, len(truth))
	for t := 0; t < trials; t++ {
		est, err := run(baseSeed + uint64(t))
		if err != nil {
			tb.Fatalf("stattest: trial %d: %v", t, err)
			return
		}
		if len(est) != len(truth) {
			tb.Fatalf("stattest: trial %d returned %d estimates, want %d", t, len(est), len(truth))
			return
		}
		for v, e := range est {
			mean[v] += e / float64(trials)
		}
	}
	tol := k * math.Sqrt(m.Variance(n)/float64(trials))
	worstV, worstDev := -1, 0.0
	for v := range mean {
		if dev := math.Abs(mean[v] - truth[v]); dev > worstDev {
			worstV, worstDev = v, dev
		}
	}
	if worstDev > tol {
		tb.Fatalf("stattest: %T mean estimate of value %d is %.4f, truth %.4f: bias %.2e exceeds %v standard errors (%.2e)",
			m, worstV, mean[worstV], truth[worstV], worstDev, k, tol)
	}
	tb.Logf("stattest: %T worst bias %.2e over %d trials (allowed %.2e)", m, worstDev, trials, tol)
}

// truthFitsDomain fails tb unless truth covers m's value domain. Only a
// FrequencyOracle knows its domain; a simulated baseline's is whatever
// its reference randomizer was given, which the per-trial length check
// holds to truth.
func truthFitsDomain(tb TB, m ldp.Mechanism, truth []float64) bool {
	if fo, ok := m.(ldp.FrequencyOracle); ok && len(truth) != fo.Domain() {
		tb.Fatalf("stattest: truth has %d values, oracle domain is %d", len(truth), fo.Domain())
		return false
	}
	return true
}
