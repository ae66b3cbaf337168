package ldp

import (
	"math"
	"testing"

	"shuffledp/internal/rng"
)

// estimateAll randomizes every value in values and returns the
// resulting frequency estimates.
func estimateAll(fo FrequencyOracle, values []int, r *rng.Rand) []float64 {
	agg := fo.NewAggregator()
	for _, v := range values {
		agg.Add(fo.Randomize(v, r))
	}
	return agg.Estimates()
}

// simulatorMatchesMechanism verifies, for one oracle, that the fast-path
// simulator produces estimates whose mean and per-value variance agree
// with the real mechanism's.
func simulatorMatchesMechanism(t *testing.T, fo FrequencyOracle, seed uint64) {
	t.Helper()
	const n, d = 4000, 0 // d taken from oracle
	dd := fo.Domain()
	values := make([]int, n)
	for i := range values {
		values[i] = i % 3 // mass on values 0..2
	}
	counts := Histogram(values, dd)
	truth := TrueFrequencies(values, dd)

	r := rng.New(seed)
	const trials = 120
	var mechVar, simVar, mechMean, simMean float64
	probe := dd - 1 // a zero-frequency value
	for i := 0; i < trials; i++ {
		me := estimateAll(fo, values, r)
		se := SimulateEstimates(fo, counts, r)
		mechMean += me[probe]
		simMean += se[probe]
		mechVar += me[probe] * me[probe]
		simVar += se[probe] * se[probe]
	}
	mechMean /= trials
	simMean /= trials
	mechVar = mechVar/trials - mechMean*mechMean
	simVar = simVar/trials - simMean*simMean

	sd := math.Sqrt(fo.Variance(n) / trials)
	if math.Abs(mechMean-truth[probe]) > 6*sd {
		t.Errorf("%s mechanism biased: mean %v", fo.Name(), mechMean)
	}
	if math.Abs(simMean-truth[probe]) > 6*sd {
		t.Errorf("%s simulator biased: mean %v", fo.Name(), simMean)
	}
	// Variances should agree with each other and the analytic value
	// within sampling noise (chi-square spread ~ sqrt(2/trials) ~ 13%).
	want := fo.Variance(n)
	for label, got := range map[string]float64{"mechanism": mechVar, "simulator": simVar} {
		if math.Abs(got-want)/want > 0.6 {
			t.Errorf("%s %s variance %v, analytic %v", fo.Name(), label, got, want)
		}
	}
}

func TestSimulatorMatchesGRR(t *testing.T) {
	simulatorMatchesMechanism(t, NewGRR(8, 1.5), 100)
}

func TestSimulatorMatchesSOLH(t *testing.T) {
	simulatorMatchesMechanism(t, NewSOLH(16, 5, 1.5), 101)
}

func TestSimulatorMatchesRAP(t *testing.T) {
	simulatorMatchesMechanism(t, NewRAP(8, 2), 102)
}

func TestSimulatorMatchesHadamard(t *testing.T) {
	simulatorMatchesMechanism(t, NewHadamard(8, 1.5), 103)
}

func TestSimulatorMatchesAUE(t *testing.T) {
	simulatorMatchesMechanism(t, NewAUE(8, 1, 1e-6, 4000), 104)
}

func TestSimulateLaplaceUnbiasedAndScaled(t *testing.T) {
	counts := []int{500, 300, 200, 0}
	r := rng.New(105)
	const trials = 4000
	eps := 1.0
	n := 1000.0
	var mean, sq float64
	for i := 0; i < trials; i++ {
		est := SimulateLaplace(counts, eps, r)
		mean += est[3]
		sq += est[3] * est[3]
	}
	mean /= trials
	variance := sq/trials - mean*mean
	if math.Abs(mean) > 0.001 {
		t.Errorf("Laplace estimate biased: %v", mean)
	}
	want := 2 * (2 / eps) * (2 / eps) / (n * n) // Var[Lap(2/eps)]/n^2
	if math.Abs(variance-want)/want > 0.2 {
		t.Errorf("Laplace variance %v, want %v", variance, want)
	}
}

func TestBaseEstimates(t *testing.T) {
	est := BaseEstimates(4)
	for _, e := range est {
		if math.Abs(e-0.25) > 1e-15 {
			t.Fatalf("Base = %v", est)
		}
	}
}

func TestMSE(t *testing.T) {
	truth := []float64{0.5, 0.5, 0}
	est := []float64{0.4, 0.6, 0}
	want := (0.01 + 0.01) / 3
	if got := MSE(truth, est); math.Abs(got-want) > 1e-15 {
		t.Fatalf("MSE = %v, want %v", got, want)
	}
	if MSE(nil, nil) != 0 {
		t.Fatal("MSE of empty vectors should be 0")
	}
}

func TestMSEPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MSE([]float64{1}, []float64{1, 2})
}

func TestFakeSupportGRR(t *testing.T) {
	s, ok := SupportOf(NewGRR(10, 1))
	if !ok {
		t.Fatal("GRR has no Support")
	}
	if math.Abs(s.U-0.1) > 1e-12 {
		t.Errorf("u = %v, want 0.1", s.U)
	}
	if beta := (s.U - s.Q) / (s.P - s.Q); math.Abs(beta-0.1) > 1e-12 {
		t.Errorf("beta = %v, want 0.1 (Equation 6)", beta)
	}
}

func TestFakeSupportSOLH(t *testing.T) {
	s, ok := SupportOf(NewSOLH(100, 8, 1))
	if !ok {
		t.Fatal("SOLH has no Support")
	}
	if math.Abs(s.U-0.125) > 1e-12 {
		t.Errorf("u = %v, want 1/8", s.U)
	}
	if beta := (s.U - s.Q) / (s.P - s.Q); math.Abs(beta) > 1e-12 {
		t.Errorf("beta = %v, want 0 for uniform-report fakes", beta)
	}
}

// A unary oracle calibrates its own reports but has no estimator under
// fakes: U is zero and Calibrate with nr > 0 panics rather than
// subtracting a made-up mass.
func TestFakeSupportPanicsForUnary(t *testing.T) {
	s, ok := SupportOf(NewRAP(10, 1))
	if !ok || s.U != 0 {
		t.Fatalf("SupportOf(RAP) = %+v, %v; want a Support with U = 0", s, ok)
	}
	s.Calibrate([]int{1, 0}, 2, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Calibrate([]int{1, 0}, 2, 1)
}

// The PEOS estimator (generalized Equation 6) must stay unbiased with
// fake reports mixed in, for both GRR and SOLH.
func TestSimulateWithFakesUnbiased(t *testing.T) {
	counts := []int{2000, 1000, 500, 500, 0, 0, 0, 0}
	n := 4000
	truth := make([]float64, len(counts))
	for v, c := range counts {
		truth[v] = float64(c) / float64(n)
	}
	for _, fo := range []FrequencyOracle{
		NewGRR(len(counts), 2),
		NewSOLH(len(counts), 4, 2),
	} {
		r := rng.New(106)
		const trials = 3000
		nr := 1000
		means := make([]float64, len(counts))
		for i := 0; i < trials; i++ {
			est := SimulateWithFakes(fo, counts, nr, r)
			for v := range est {
				means[v] += est[v]
			}
		}
		for v := range means {
			means[v] /= trials
			if math.Abs(means[v]-truth[v]) > 0.01 {
				t.Errorf("%s value %d: mean %v, truth %v", fo.Name(), v, means[v], truth[v])
			}
		}
	}
}

func TestSimulateWithFakesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SimulateWithFakes(NewGRR(4, 1), []int{1, 1, 1, 1}, -1, rng.New(1))
}

func TestTopK(t *testing.T) {
	xs := []float64{0.1, 0.9, 0.3, 0.7, 0.5}
	got := TopK(xs, 3)
	want := []int{1, 3, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("TopK = %v, want %v", got, want)
		}
	}
	if len(TopK(xs, 10)) != 5 {
		t.Fatal("TopK should clamp k to len")
	}
}

func TestExpectedMSEFinite(t *testing.T) {
	if v := ExpectedMSE(NewGRR(10, 1), 1000); v <= 0 {
		t.Fatalf("ExpectedMSE = %v", v)
	}
}
