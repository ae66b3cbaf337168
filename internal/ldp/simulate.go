package ldp

import (
	"math"

	"shuffledp/internal/rng"
)

// Fast-path simulators.
//
// Reproducing Figure 3 takes ~100 trials x 10 budgets x 9 methods at
// n ~ 6*10^5 users; materializing every report would make the harness
// O(trials * budgets * methods * n * d). Instead these helpers sample the
// server's *observed support counts* directly from their exact per-value
// sampling distribution:
//
//	C_v = Bin(n_v, p) + Bin(n - n_v, q)
//
// where p is the probability a report supports the reporter's own value
// and q the probability it supports any other fixed value. The counts
// are sampled independently across v; the true joint distribution has
// (mild, negative) cross-value correlation, but the expected MSE —
// the metric in every figure — depends only on the per-value marginals,
// which are exact.
//
// Support (accumulator.go) has each oracle's (p, q); Hadamard is
// simulated through its support-count view, AUE additively
// (SimulateAUE).

// SimulateEstimates draws one sample of the frequency-estimate vector a
// server would compute from n randomized reports whose true histogram is
// trueCounts (length d, summing to n). It is exact in each per-value
// marginal. Works for every oracle in this package.
func SimulateEstimates(fo FrequencyOracle, trueCounts []int, r *rng.Rand) []float64 {
	if aue, isAUE := fo.(*AUE); isAUE {
		return SimulateAUE(aue, trueCounts, r)
	}
	return SimulateWithFakes(fo, trueCounts, 0, r)
}

// SimulateAUE draws one estimate vector under the Balcer–Cheu mechanism:
// C_v = n_v + Bin(n*rounds, prob); f~_v = C_v/n - gamma.
func SimulateAUE(a *AUE, trueCounts []int, r *rng.Rand) []float64 {
	n := 0
	for _, c := range trueCounts {
		n += c
	}
	est := make([]float64, len(trueCounts))
	if n == 0 {
		return est
	}
	nf := float64(n)
	for v, nv := range trueCounts {
		c := nv + r.Binomial(n*a.rounds, a.prob)
		est[v] = float64(c)/nf - a.gamma
	}
	return est
}

// SimulateLaplace draws the central-DP Laplace baseline: the curator
// publishes the exact histogram plus Lap(sensitivity/eps) noise on each
// count. Under the paper's replacement neighboring (Definition 1) the
// L1 sensitivity of a histogram is 2.
func SimulateLaplace(trueCounts []int, eps float64, r *rng.Rand) []float64 {
	validateEpsilon(eps)
	n := 0
	for _, c := range trueCounts {
		n += c
	}
	est := make([]float64, len(trueCounts))
	if n == 0 {
		return est
	}
	scale := 2 / eps
	nf := float64(n)
	for v, nv := range trueCounts {
		est[v] = (float64(nv) + r.Laplace(scale)) / nf
	}
	return est
}

// BaseEstimates is the "Base" baseline of Figure 3: output the uniform
// distribution regardless of the data.
func BaseEstimates(d int) []float64 {
	est := make([]float64, d)
	for v := range est {
		est[v] = 1 / float64(d)
	}
	return est
}

// MSE returns the mean squared error (the paper's metric, §VII-A):
// (1/d) * sum_v (f_v - f~_v)^2.
func MSE(truth, est []float64) float64 {
	if len(truth) != len(est) {
		panic("ldp: MSE length mismatch")
	}
	if len(truth) == 0 {
		return 0
	}
	var sum float64
	for v := range truth {
		dlt := truth[v] - est[v]
		sum += dlt * dlt
	}
	return sum / float64(len(truth))
}

// SimulateWithFakes is SimulateEstimates for the PEOS setting (§VI-C):
// nr fake reports drawn uniformly from the report space are mixed with
// the n user reports and the server post-processes with the generalized
// Equation (6) (Support.Calibrate). With nr > 0 the oracle must have a
// PEOS estimator — GRR or local hashing (Algorithm 1).
func SimulateWithFakes(fo FrequencyOracle, trueCounts []int, nr int, r *rng.Rand) []float64 {
	if nr < 0 {
		panic("ldp: negative fake-report count")
	}
	s, ok := SupportOf(fo)
	if !ok {
		panic("ldp: no simulator for oracle " + fo.Name())
	}
	n := 0
	for _, c := range trueCounts {
		n += c
	}
	if n == 0 {
		return make([]float64, len(trueCounts))
	}
	counts := make([]int, len(trueCounts))
	for v, nv := range trueCounts {
		counts[v] = r.Binomial(nv, s.P) + r.Binomial(n-nv, s.Q) + r.Binomial(nr, s.U)
	}
	return s.Calibrate(counts, n, nr)
}

// TopK returns the indices of the k largest entries of xs (ties broken
// by lower index), used by the succinct-histogram experiments.
func TopK(xs []float64, k int) []int {
	if k < 0 {
		panic("ldp: TopK with k < 0")
	}
	if k > len(xs) {
		k = len(xs)
	}
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	// Partial selection sort is fine for the k ~ 32 used here.
	for i := 0; i < k; i++ {
		best := i
		for j := i + 1; j < len(idx); j++ {
			if xs[idx[j]] > xs[idx[best]] {
				best = j
			}
		}
		idx[i], idx[best] = idx[best], idx[i]
	}
	return idx[:k]
}

// ExpectedMSE returns the analytic expected MSE of a mechanism at n
// users assuming rare values: simply Variance(n) (bias is zero). Kept
// as a named helper so harness code reads like the paper.
func ExpectedMSE(fo FrequencyOracle, n int) float64 {
	v := fo.Variance(n)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		panic("ldp: non-finite analytic variance")
	}
	return v
}
