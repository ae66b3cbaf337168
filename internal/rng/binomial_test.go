package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBinomialDegenerate(t *testing.T) {
	r := New(1)
	if r.Binomial(0, 0.5) != 0 {
		t.Error("Binomial(0, .5) != 0")
	}
	if r.Binomial(100, 0) != 0 {
		t.Error("Binomial(100, 0) != 0")
	}
	if r.Binomial(100, 1) != 100 {
		t.Error("Binomial(100, 1) != 100")
	}
}

func TestBinomialPanicsNegativeN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).Binomial(-1, 0.5)
}

// checkBinomialMoments verifies mean and variance against theory within
// z standard errors.
func checkBinomialMoments(t *testing.T, seed uint64, n int, p float64, trials int) {
	t.Helper()
	r := New(seed)
	var sum, sumSq float64
	for i := 0; i < trials; i++ {
		x := float64(r.Binomial(n, p))
		if x < 0 || x > float64(n) {
			t.Fatalf("Binomial(%d,%v) out of range: %v", n, p, x)
		}
		sum += x
		sumSq += x * x
	}
	tf := float64(trials)
	mean := sum / tf
	variance := sumSq/tf - mean*mean
	wantMean := float64(n) * p
	wantVar := float64(n) * p * (1 - p)
	// Standard error of the sample mean is sqrt(var/trials).
	seMean := math.Sqrt(wantVar / tf)
	if math.Abs(mean-wantMean) > 6*seMean+1e-9 {
		t.Errorf("Binomial(%d,%v): mean %v, want %v (se %v)", n, p, mean, wantMean, seMean)
	}
	if wantVar > 0 && math.Abs(variance-wantVar)/wantVar > 0.08 {
		t.Errorf("Binomial(%d,%v): variance %v, want %v", n, p, variance, wantVar)
	}
}

func TestBinomialMomentsBINV(t *testing.T) {
	// Small n*p exercises the inversion path.
	checkBinomialMoments(t, 21, 50, 0.1, 100000)
	checkBinomialMoments(t, 22, 10, 0.4, 100000)
	checkBinomialMoments(t, 23, 1000, 0.01, 100000)
}

func TestBinomialMomentsBTPE(t *testing.T) {
	// Large n*p exercises BTPE.
	checkBinomialMoments(t, 24, 1000, 0.3, 50000)
	checkBinomialMoments(t, 25, 100000, 0.5, 20000)
	checkBinomialMoments(t, 26, 1000000, 0.001, 20000) // np = 1000
}

func TestBinomialSymmetry(t *testing.T) {
	// p > 0.5 goes through the flipped path; check the mean is right.
	checkBinomialMoments(t, 27, 500, 0.9, 50000)
	checkBinomialMoments(t, 28, 40, 0.95, 100000)
}

// TestBinomialChiSquare runs a goodness-of-fit test for a small case where
// exact pmf values are cheap.
func TestBinomialChiSquare(t *testing.T) {
	r := New(29)
	const n, trials = 8, 200000
	p := 0.35
	counts := make([]int, n+1)
	for i := 0; i < trials; i++ {
		counts[r.Binomial(n, p)]++
	}
	// Exact pmf.
	pmf := make([]float64, n+1)
	for k := 0; k <= n; k++ {
		pmf[k] = binomPMF(n, k, p)
	}
	chi2 := 0.0
	for k := 0; k <= n; k++ {
		want := pmf[k] * trials
		if want < 5 {
			continue
		}
		d := float64(counts[k]) - want
		chi2 += d * d / want
	}
	// 8 dof, 99.9% critical value ~ 26.1; allow margin.
	if chi2 > 35 {
		t.Errorf("chi-square = %v too large; counts %v", chi2, counts)
	}
}

func binomPMF(n, k int, p float64) float64 {
	// Computed in log space for stability.
	lg := lgamma(float64(n+1)) - lgamma(float64(k+1)) - lgamma(float64(n-k+1))
	return math.Exp(lg + float64(k)*math.Log(p) + float64(n-k)*math.Log(1-p))
}

func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// Property: result always within [0, n].
func TestQuickBinomialRange(t *testing.T) {
	r := New(30)
	f := func(n uint16, pRaw uint16) bool {
		nn := int(n % 2000)
		p := float64(pRaw) / 65535
		k := r.Binomial(nn, p)
		return k >= 0 && k <= nn
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
