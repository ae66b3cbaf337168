package ldp

import (
	"math"
	"testing"

	"shuffledp/internal/rng"
)

func TestGRRProbabilities(t *testing.T) {
	g := NewGRR(10, 1)
	e := math.E
	wantP := e / (e + 9)
	wantQ := 1 / (e + 9)
	if math.Abs(g.p-wantP) > 1e-12 || math.Abs(g.q-wantQ) > 1e-12 {
		t.Fatalf("p=%v q=%v, want %v %v", g.p, g.q, wantP, wantQ)
	}
	// LDP guarantee: p/q = e^eps.
	if math.Abs(g.p/g.q-e) > 1e-9 {
		t.Fatalf("p/q = %v, want e", g.p/g.q)
	}
	// Sanity of the output distribution: p + (d-1) q = 1.
	if math.Abs(g.p+9*g.q-1) > 1e-12 {
		t.Fatal("GRR output distribution does not normalize")
	}
}

func TestGRRPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"domain":  func() { NewGRR(1, 1) },
		"epsilon": func() { NewGRR(10, 0) },
		"value":   func() { NewGRR(10, 1).Randomize(10, rng.New(1)) },
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

func TestGRRReportDistribution(t *testing.T) {
	const d = 5
	g := NewGRR(d, 1.5)
	r := rng.New(2)
	const trials = 200000
	counts := make([]int, d)
	for i := 0; i < trials; i++ {
		counts[g.Randomize(3, r).Value]++
	}
	for y := 0; y < d; y++ {
		want := g.q * trials
		if y == 3 {
			want = g.p * trials
		}
		if math.Abs(float64(counts[y])-want) > 6*math.Sqrt(want) {
			t.Errorf("output %d: %d, want ~%.0f", y, counts[y], want)
		}
	}
}

func TestGRREstimatesUnbiased(t *testing.T) {
	const d = 8
	g := NewGRR(d, 2)
	r := rng.New(3)
	// True distribution: value 0 has freq 0.5, value 1 has 0.25, rest
	// spread.
	values := make([]int, 0, 40000)
	for i := 0; i < 20000; i++ {
		values = append(values, 0)
	}
	for i := 0; i < 10000; i++ {
		values = append(values, 1)
	}
	for i := 0; i < 10000; i++ {
		values = append(values, 2+i%(d-2))
	}
	truth := TrueFrequencies(values, d)
	est := estimateAll(g, values, r)
	for v := 0; v < d; v++ {
		// Analytic sd per value is sqrt(Variance(n)) ~ 0.004; allow 5 sd.
		if math.Abs(est[v]-truth[v]) > 5*math.Sqrt(g.Variance(len(values))) {
			t.Errorf("value %d: est %v, truth %v", v, est[v], truth[v])
		}
	}
}

func TestGRRVarianceMatchesEmpirical(t *testing.T) {
	const d = 6
	g := NewGRR(d, 1)
	r := rng.New(4)
	const n, trials = 5000, 300
	values := make([]int, n) // all users hold value 0
	var sumSq float64
	for trial := 0; trial < trials; trial++ {
		est := estimateAll(g, values, r)
		// Measure variance on a value nobody holds (f_v = 0), matching
		// the rare-value assumption of the analytic formula.
		sumSq += est[3] * est[3]
	}
	got := sumSq / trials
	want := g.Variance(n)
	if math.Abs(got-want)/want > 0.25 {
		t.Errorf("empirical variance %v, analytic %v", got, want)
	}
}

func TestCalibrateCountsZeroReports(t *testing.T) {
	est := Support{P: 0.9, Q: 0.1}.Calibrate([]int{0, 0, 0}, 0, 0)
	for _, e := range est {
		if e != 0 {
			t.Fatal("expected zeros for empty aggregation")
		}
	}
}

func TestHistogramAndTrueFrequencies(t *testing.T) {
	values := []int{0, 1, 1, 2, 2, 2}
	h := Histogram(values, 4)
	want := []int{1, 2, 3, 0}
	for i := range want {
		if h[i] != want[i] {
			t.Fatalf("Histogram = %v, want %v", h, want)
		}
	}
	f := TrueFrequencies(values, 4)
	if math.Abs(f[2]-0.5) > 1e-12 || f[3] != 0 {
		t.Fatalf("TrueFrequencies = %v", f)
	}
	if fEmpty := TrueFrequencies(nil, 3); fEmpty[0] != 0 {
		t.Fatal("empty dataset should give zero frequencies")
	}
}

func TestHistogramPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Histogram([]int{5}, 3)
}
