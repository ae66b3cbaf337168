package ldp

import (
	"math"
	"testing"

	"shuffledp/internal/rng"
)

func TestRAPFlipProbability(t *testing.T) {
	u := NewRAP(10, 2)
	want := 1 / (math.Exp(1) + 1) // eps/2 = 1
	if math.Abs(u.flip-want) > 1e-12 {
		t.Fatalf("flip = %v, want %v", u.flip, want)
	}
}

func TestRAPRMatchesRAPDoubleBudget(t *testing.T) {
	// §IV-B4: eps-removal-LDP == 2eps-replacement-LDP; the mechanisms
	// must coincide.
	rapR := NewRAPR(50, 1)
	rap := NewRAP(50, 2)
	if math.Abs(rapR.flip-rap.flip) > 1e-12 {
		t.Fatalf("RAP_R flip %v != RAP(2eps) flip %v", rapR.flip, rap.flip)
	}
	if rapR.EpsilonLocal() != 2 {
		t.Fatalf("RAP_R equivalent replacement budget = %v, want 2", rapR.EpsilonLocal())
	}
	if math.Abs(rapR.Variance(1000)-rap.Variance(1000)) > 1e-15 {
		t.Fatal("RAP_R and RAP(2eps) variances differ")
	}
}

func TestUnaryReportShape(t *testing.T) {
	u := NewRAP(16, 1)
	r := rng.New(9)
	rep := u.Randomize(5, r)
	if len(rep.Bits) != 16 {
		t.Fatalf("report length %d", len(rep.Bits))
	}
	for _, b := range rep.Bits {
		if b != 0 && b != 1 {
			t.Fatalf("non-binary bit %d", b)
		}
	}
}

func TestUnaryBitDistribution(t *testing.T) {
	u := NewRAP(4, 1.5)
	r := rng.New(10)
	const trials = 100000
	ones := make([]int, 4)
	for i := 0; i < trials; i++ {
		rep := u.Randomize(2, r)
		for j, b := range rep.Bits {
			ones[j] += int(b)
		}
	}
	for j := range ones {
		want := u.flip * trials
		if j == 2 {
			want = (1 - u.flip) * trials
		}
		if math.Abs(float64(ones[j])-want) > 6*math.Sqrt(want) {
			t.Errorf("bit %d: %d ones, want ~%.0f", j, ones[j], want)
		}
	}
}

func TestUnaryEstimatesUnbiased(t *testing.T) {
	const d = 12
	u := NewRAP(d, 3)
	r := rng.New(11)
	values := make([]int, 20000)
	for i := range values {
		values[i] = i % 3 // only values 0,1,2 occur
	}
	truth := TrueFrequencies(values, d)
	est := estimateAll(u, values, r)
	tol := 5 * math.Sqrt(u.Variance(len(values)))
	for v := 0; v < d; v++ {
		if math.Abs(est[v]-truth[v]) > tol {
			t.Errorf("value %d: est %v truth %v", v, est[v], truth[v])
		}
	}
}

func TestUnaryAggregatorPanicsOnWrongLength(t *testing.T) {
	agg := NewRAP(4, 1).NewAggregator()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	agg.Add(Report{Bits: []byte{1, 0}})
}

func TestAUEGamma(t *testing.T) {
	a := NewAUE(100, 0.5, 1e-9, 1000000)
	want := 200 * math.Log(4e9) / (0.25 * 1e6)
	if math.Abs(a.gamma-want)/want > 1e-12 {
		t.Fatalf("gamma = %v, want %v", a.gamma, want)
	}
	if a.EpsilonLocal() != 0 {
		t.Fatal("AUE should report no local privacy")
	}
}

func TestAUEMultiRoundRegime(t *testing.T) {
	// Small n forces gamma > 1; the mechanism must switch to multiple
	// Bernoulli rounds with the same total mean (see the AUE doc).
	a := NewAUE(10, 0.5, 1e-9, 1000) // gamma ~ 17.7
	if a.gamma <= 1 {
		t.Fatalf("expected gamma > 1, got %v", a.gamma)
	}
	if a.Rounds() != int(math.Ceil(a.gamma)) {
		t.Fatalf("rounds = %d for gamma %v", a.Rounds(), a.gamma)
	}
	// Mean blanket per location must equal gamma.
	r := rng.New(77)
	const trials = 5000
	var total float64
	for i := 0; i < trials; i++ {
		rep := a.Randomize(0, r)
		total += float64(rep.Bits[5]) // a location without the one-hot bit
	}
	mean := total / trials
	if math.Abs(mean-a.gamma)/a.gamma > 0.05 {
		t.Fatalf("blanket mean %v, want %v", mean, a.gamma)
	}
	// And the variance must remain positive (no silent privacy loss).
	if a.Variance(1000) <= 0 {
		t.Fatalf("variance = %v", a.Variance(1000))
	}
}

func TestAUEPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"delta": func() { NewAUE(10, 1, 0, 100) },
		"n":     func() { NewAUE(10, 1, 1e-9, 0) },
		"eps":   func() { NewAUE(10, 0, 1e-9, 100) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		})
	}
}

func TestAUEAlwaysIncludesTrueValue(t *testing.T) {
	a := NewAUE(20, 1, 1e-9, 100000)
	r := rng.New(12)
	for i := 0; i < 200; i++ {
		rep := a.Randomize(7, r)
		if rep.Bits[7] < 1 {
			t.Fatal("AUE dropped the true value — it must always be included")
		}
	}
}

func TestAUEEstimatesUnbiased(t *testing.T) {
	const d, n = 10, 20000
	a := NewAUE(d, 1, 1e-6, n)
	r := rng.New(13)
	values := make([]int, n)
	for i := range values {
		values[i] = i % 4
	}
	truth := TrueFrequencies(values, d)
	est := estimateAll(a, values, r)
	tol := 5*math.Sqrt(a.Variance(n)) + 1e-9
	for v := 0; v < d; v++ {
		if math.Abs(est[v]-truth[v]) > tol {
			t.Errorf("value %d: est %v truth %v (tol %v)", v, est[v], truth[v], tol)
		}
	}
}
