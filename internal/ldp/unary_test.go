package ldp

import (
	"math"
	"testing"

	"shuffledp/internal/rng"
)

func TestRAPFlipProbability(t *testing.T) {
	u := NewRAP(2)
	want := 1 / (math.Exp(1) + 1) // eps/2 = 1
	if math.Abs(u.flip-want) > 1e-12 {
		t.Fatalf("flip = %v, want %v", u.flip, want)
	}
}

func TestRAPRMatchesRAPDoubleBudget(t *testing.T) {
	// §IV-B4: eps-removal-LDP == 2eps-replacement-LDP. RAP_R's per-bit
	// flip 1/(e^eps + 1) is RAP's at 2eps bit for bit, which is why the
	// repository builds RAP_R as NewRAP(2eps).
	rap := NewRAP(2)
	if want := 1 / (math.Exp(1) + 1); rap.flip != want {
		t.Fatalf("RAP(2eps) flip %v != RAP_R flip %v", rap.flip, want)
	}
	if rap.EpsilonLocal() != 2 {
		t.Fatalf("RAP_R equivalent replacement budget = %v, want 2", rap.EpsilonLocal())
	}
}

func TestUnaryEstimatesUnbiased(t *testing.T) {
	const d = 12
	u := NewRAP(3)
	r := rng.New(11)
	values := make([]int, 20000)
	for i := range values {
		values[i] = i % 3 // only values 0,1,2 occur
	}
	truth := TrueFrequencies(values, d)
	est := rapEstimate(u, d, values, r)
	tol := 5 * math.Sqrt(u.Variance(len(values)))
	for v := 0; v < d; v++ {
		if math.Abs(est[v]-truth[v]) > tol {
			t.Errorf("value %d: est %v truth %v", v, est[v], truth[v])
		}
	}
}

func TestAUEGamma(t *testing.T) {
	a := NewAUE(0.5, 1e-9, 1000000)
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
	a := NewAUE(0.5, 1e-9, 1000) // gamma ~ 17.7
	if a.gamma <= 1 {
		t.Fatalf("expected gamma > 1, got %v", a.gamma)
	}
	if a.rounds != int(math.Ceil(a.gamma)) {
		t.Fatalf("rounds = %d for gamma %v", a.rounds, a.gamma)
	}
	// Mean blanket per location must equal gamma: every user holds
	// value 0, so the estimate elsewhere is the blanket mean less gamma.
	const d, n = 10, 5000
	est := aueEstimate(a, d, make([]int, n), rng.New(77))
	tol := 6 * math.Sqrt(a.Variance(n))
	for v := 1; v < d; v++ {
		if math.Abs(est[v]) > tol {
			t.Fatalf("location %d: blanket mean %v, want %v", v, est[v]+a.gamma, a.gamma)
		}
	}
	// And the variance must remain positive (no silent privacy loss).
	if a.Variance(1000) <= 0 {
		t.Fatalf("variance = %v", a.Variance(1000))
	}
}

func TestAUEPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"delta": func() { NewAUE(1, 0, 100) },
		"n":     func() { NewAUE(1, 1e-9, 0) },
		"eps":   func() { NewAUE(0, 1e-9, 100) },
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

func TestAUEEstimatesUnbiased(t *testing.T) {
	const d, n = 10, 20000
	a := NewAUE(1, 1e-6, n)
	r := rng.New(13)
	values := make([]int, n)
	for i := range values {
		values[i] = i % 4
	}
	truth := TrueFrequencies(values, d)
	est := aueEstimate(a, d, values, r)
	tol := 5*math.Sqrt(a.Variance(n)) + 1e-9
	for v := 0; v < d; v++ {
		if math.Abs(est[v]-truth[v]) > tol {
			t.Errorf("value %d: est %v truth %v (tol %v)", v, est[v], truth[v], tol)
		}
	}
}
