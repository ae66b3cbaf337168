package ldp

import (
	"math"
	"testing"

	"shuffledp/internal/rng"
)

func TestOUEProbabilities(t *testing.T) {
	o := NewOUE(10, 1)
	if o.p != 0.5 {
		t.Fatalf("p = %v", o.p)
	}
	want := 1 / (math.E + 1)
	if math.Abs(o.q-want) > 1e-12 {
		t.Fatalf("q = %v, want %v", o.q, want)
	}
	// The LDP ratio on a single bit: (p/(q)) * ((1-q)/(1-p)) = e^eps.
	ratio := o.p / o.q * (1 - o.q) / (1 - o.p)
	if math.Abs(ratio-math.E) > 1e-9 {
		t.Fatalf("LDP ratio = %v, want e", ratio)
	}
}

func TestOUEBeatsRAP(t *testing.T) {
	// [54]: OUE's asymmetric flips strictly beat symmetric RAP at the
	// same budget.
	const d, n = 100, 10000
	for _, eps := range []float64{0.5, 1, 2} {
		if NewOUE(d, eps).Variance(n) >= NewRAP(d, eps).Variance(n) {
			t.Errorf("eps=%v: OUE should beat RAP", eps)
		}
	}
}

func TestOUEEstimatesUnbiased(t *testing.T) {
	const d = 10
	o := NewOUE(d, 2)
	r := rng.New(50)
	values := make([]int, 20000)
	for i := range values {
		values[i] = i % 3
	}
	truth := TrueFrequencies(values, d)
	est := estimateAll(o, values, r)
	tol := 5 * math.Sqrt(o.Variance(len(values)))
	for v := 0; v < d; v++ {
		if math.Abs(est[v]-truth[v]) > tol {
			t.Errorf("value %d: est %v truth %v", v, est[v], truth[v])
		}
	}
}

func TestOUESimulatorAgrees(t *testing.T) {
	simulatorMatchesMechanism(t, NewOUE(8, 1.5), 51)
}

func TestOUEPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"domain": func() { NewOUE(1, 1) },
		"eps":    func() { NewOUE(10, 0) },
		"value":  func() { NewOUE(10, 1).Randomize(10, rng.New(1)) },
		"report": func() { NewOUE(10, 1).NewAggregator().Add(Report{Bits: []byte{1}}) },
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

func TestOUENotPEOSCompatible(t *testing.T) {
	if _, err := NewWordEncoder(NewOUE(10, 1)); err == nil {
		t.Fatal("OUE should have no word encoding")
	}
}
