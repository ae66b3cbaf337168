package amplify

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
)

const (
	testN     = 602325 // IPUMS size
	testD     = 915
	testDelta = 1e-9
)

func TestCentralEpsilonSOLHFormula(t *testing.T) {
	// Direct formula check at a hand-computed point.
	epsL, dPrime := 1.0, 10
	want := math.Sqrt(14 * math.Log(2/testDelta) * (math.E + 9) / float64(testN-1))
	if got := CentralEpsilonSOLH(epsL, dPrime, testN, testDelta); math.Abs(got-want) > 1e-12 {
		t.Fatalf("epsC = %v, want %v", got, want)
	}
}

func TestCentralEpsilonGRRMatchesSOLHWithD(t *testing.T) {
	// The GRR bound is the SOLH bound with d' = d.
	if CentralEpsilonGRR(1, testD, testN, testDelta) !=
		CentralEpsilonSOLH(1, testD, testN, testDelta) {
		t.Fatal("GRR and SOLH bounds disagree at d' = d")
	}
}

func TestCentralEpsilonMonotonicity(t *testing.T) {
	// Amplified epsC grows with epsL and with d', shrinks with n.
	base := CentralEpsilonSOLH(1, 10, testN, testDelta)
	if CentralEpsilonSOLH(2, 10, testN, testDelta) <= base {
		t.Error("epsC should grow with epsL")
	}
	if CentralEpsilonSOLH(1, 20, testN, testDelta) <= base {
		t.Error("epsC should grow with d'")
	}
	if CentralEpsilonSOLH(1, 10, 2*testN, testDelta) >= base {
		t.Error("epsC should shrink with n")
	}
}

func TestAmplificationShrinksBudget(t *testing.T) {
	// The whole point of the shuffle model: epsC < epsL in the
	// amplification regime.
	epsL := 4.0
	if epsC := CentralEpsilonSOLH(epsL, 50, testN, testDelta); epsC >= epsL {
		t.Fatalf("no amplification: epsC=%v >= epsL=%v", epsC, epsL)
	}
}

func TestLocalEpsilonSOLHRoundTrip(t *testing.T) {
	// Inversion: epsL -> epsC -> epsL must be the identity.
	for _, dPrime := range []int{2, 10, 100} {
		for _, epsL := range []float64{0.5, 1, 3} {
			epsC := CentralEpsilonSOLH(epsL, dPrime, testN, testDelta)
			got, err := LocalEpsilonSOLH(epsC, dPrime, testN, testDelta)
			if err != nil {
				t.Fatalf("d'=%d epsL=%v: %v", dPrime, epsL, err)
			}
			if math.Abs(got-epsL) > 1e-9 {
				t.Fatalf("d'=%d: roundtrip %v -> %v", dPrime, epsL, got)
			}
		}
	}
}

func TestLocalEpsilonGRRRoundTrip(t *testing.T) {
	epsC := CentralEpsilonGRR(2, testD, testN, testDelta)
	got, err := LocalEpsilonGRR(epsC, testD, testN, testDelta)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-2) > 1e-9 {
		t.Fatalf("roundtrip gave %v", got)
	}
}

func TestLocalEpsilonGRRNoAmplification(t *testing.T) {
	// Below the threshold epsC < sqrt(14 ln(2/delta) d/(n-1)) the GRR
	// inversion must fail (the SH regime of Figure 3).
	threshold := math.Sqrt(14 * math.Log(2/testDelta) * testD / float64(testN-1))
	_, err := LocalEpsilonGRR(threshold*0.9, testD, testN, testDelta)
	if !errors.Is(err, ErrNoAmplification) {
		t.Fatalf("expected ErrNoAmplification, got %v", err)
	}
	// Above the threshold it must succeed.
	if _, err := LocalEpsilonGRR(threshold*1.5, testD, testN, testDelta); err != nil {
		t.Fatalf("expected success above threshold: %v", err)
	}
}

func TestLocalEpsilonUnaryRoundTrip(t *testing.T) {
	epsC := CentralEpsilonUnary(1.5, testN, testDelta)
	got, err := LocalEpsilonUnary(epsC, testN, testDelta)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1.5) > 1e-9 {
		t.Fatalf("roundtrip gave %v", got)
	}
}

func TestBlanketM(t *testing.T) {
	// m at epsC=1, IPUMS parameters: ~602324 / (14 ln(2e9)).
	want := float64(testN-1) / (14 * math.Log(2/testDelta))
	if got := BlanketM(1, testN, testDelta); math.Abs(got-want)/want > 1e-12 {
		t.Fatalf("m = %v, want %v", got, want)
	}
}

func TestOptimalDPrimeEquation5(t *testing.T) {
	// d' = floor((m+2)/3).
	if got := OptimalDPrime(100, 1000); got != 34 {
		t.Fatalf("OptimalDPrime(100) = %d, want 34", got)
	}
	if got := OptimalDPrime(1, 1000); got != 2 {
		t.Fatalf("small m should clamp to 2, got %d", got)
	}
	if got := OptimalDPrime(1e6, 50); got != 50 {
		t.Fatalf("should clamp to maxD, got %d", got)
	}
}

// The optimality property behind Equation (5): at fixed m, the chosen
// integer d' must not lose to its neighbors.
func TestOptimalDPrimeIsLocallyOptimal(t *testing.T) {
	for _, m := range []float64{20, 100, 1000, 54321} {
		dStar := OptimalDPrime(m, 1<<30)
		vStar, err := VarianceSOLHAt(m, dStar, testN)
		if err != nil {
			t.Fatalf("m=%v: %v", m, err)
		}
		for _, d := range []int{dStar - 1, dStar + 1, dStar * 2, dStar / 2} {
			if d < 2 || float64(d) >= m {
				continue
			}
			v, err := VarianceSOLHAt(m, d, testN)
			if err != nil {
				continue
			}
			// Integer floor can be off by one step from the real
			// optimum; require no *better-than-1%* improvement at
			// the immediate neighbors and factor-2 moves.
			if v < vStar*0.99 {
				t.Errorf("m=%v: d'=%d (var %.3e) beats chosen %d (var %.3e)",
					m, d, v, dStar, vStar)
			}
		}
	}
}

func TestVarianceGRRGrowsWithDomain(t *testing.T) {
	v1, err1 := VarianceGRR(1, 100, testN, testDelta)
	v2, err2 := VarianceGRR(1, 900, testN, testDelta)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if v2 <= v1 {
		t.Fatalf("GRR variance should grow with d: %v vs %v", v1, v2)
	}
}

// Proposition 4 holds for every m > d, the same regime in which
// LocalEpsilonGRR finds a positive local budget: at m = d + 1/2 both
// succeed, and the variance is (m-1) / (n (m-d)^2).
func TestVarianceGRRJustAboveDomain(t *testing.T) {
	const d = 100
	epsC := math.Sqrt((d + 0.5) * 14 * math.Log(2/testDelta) / float64(testN-1))
	m := BlanketM(epsC, testN, testDelta)
	if math.Abs(m-(d+0.5)) > 1e-9 {
		t.Fatalf("m = %v, want d + 0.5", m)
	}
	if epsL, err := LocalEpsilonGRR(epsC, d, testN, testDelta); err != nil || epsL <= 0 {
		t.Fatalf("LocalEpsilonGRR = %v, %v; want a positive budget", epsL, err)
	}
	v, err := VarianceGRR(epsC, d, testN, testDelta)
	if err != nil {
		t.Fatalf("VarianceGRR at m = d + 0.5: %v", err)
	}
	if want := (m - 1) / (float64(testN) * (m - d) * (m - d)); math.Abs(v-want) > 1e-12*want {
		t.Fatalf("VarianceGRR = %v, want %v", v, want)
	}
	if _, err := VarianceGRR(epsC, d+1, testN, testDelta); !errors.Is(err, ErrNoAmplification) {
		t.Fatalf("VarianceGRR at m < d: %v, want ErrNoAmplification", err)
	}
}

func TestVarianceSOLHBeatsGRRLargeDomain(t *testing.T) {
	// §IV-B3: for large d, SOLH wins; also exposed via PreferGRR.
	vg, err := VarianceGRR(0.8, testD, testN, testDelta)
	if err != nil {
		t.Fatal(err)
	}
	vs, _, err := VarianceSOLH(0.8, testD, testN, testDelta)
	if err != nil {
		t.Fatal(err)
	}
	if vs >= vg {
		t.Fatalf("SOLH (%v) should beat GRR (%v) at d=%d", vs, vg, testD)
	}
	if PreferGRR(0.8, testD, testN, testDelta) {
		t.Fatal("PreferGRR should be false at d=915")
	}
}

func TestPreferGRRSmallDomain(t *testing.T) {
	// At d=2 GRR has no hashing loss and should win.
	if !PreferGRR(0.5, 2, testN, testDelta) {
		vg, _ := VarianceGRR(0.5, 2, testN, testDelta)
		vs, dp, _ := VarianceSOLH(0.5, 2, testN, testDelta)
		t.Fatalf("GRR (%v) should beat SOLH (%v, d'=%d) at d=2", vg, vs, dp)
	}
}

func TestVarianceSOLHMatchesPaperShape(t *testing.T) {
	// Sanity-check the absolute scale at the Figure 3 operating point
	// epsC=1 (see DESIGN.md): variance should be ~5.6e-9.
	v, dPrime, err := VarianceSOLH(1, testD, testN, testDelta)
	if err != nil {
		t.Fatal(err)
	}
	if dPrime < 600 || dPrime > 750 {
		t.Errorf("d' = %d, expected ~670", dPrime)
	}
	if v < 1e-9 || v > 1e-8 {
		t.Errorf("SOLH variance at epsC=1: %v, expected ~5.6e-9", v)
	}
}

func TestTableIOrdering(t *testing.T) {
	// Table I relationships. BBGN's bound has the same
	// sqrt((e^epsL+1)/n) structure as CSUZZ with a strictly smaller
	// constant (14 ln(2/delta) vs 32 ln(4/delta)), so it dominates
	// CSUZZ pointwise on binary domains.
	n := 1000000
	for _, epsL := range []float64{0.2, 0.4, 1, 2, 4} {
		bbgn := CentralEpsilonGRR(epsL, 2, n, testDelta)
		csuzz, _ := CentralEpsilonCSUZZ(epsL, n, testDelta)
		if bbgn >= csuzz {
			t.Fatalf("epsL=%v: BBGN (%v) should beat CSUZZ (%v)", epsL, bbgn, csuzz)
		}
	}
	// EFMRTT is only valid for epsL < 1/2 (its edge in that range is
	// linearity in epsL); BBGN's strength is applying beyond it — the
	// "circumstances under which the method can be used are different"
	// note under Table I.
	if _, ok := CentralEpsilonEFMRTT(0.4, n, testDelta); !ok {
		t.Fatal("EFMRTT condition should hold at epsL=0.4")
	}
	if _, ok := CentralEpsilonEFMRTT(0.6, n, testDelta); ok {
		t.Fatal("EFMRTT condition should fail at epsL=0.6")
	}
}

func TestCSUZZConditionDetection(t *testing.T) {
	// At tiny n the lower condition fails.
	_, ok := CentralEpsilonCSUZZ(0.5, 100, testDelta)
	if ok {
		t.Fatal("CSUZZ condition should fail at n=100")
	}
}

func TestValidatePanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"n":       func() { CentralEpsilonSOLH(1, 10, 1, testDelta) },
		"delta":   func() { CentralEpsilonSOLH(1, 10, testN, 0) },
		"dprime":  func() { CentralEpsilonSOLH(1, 1, testN, testDelta) },
		"epsC":    func() { BlanketM(0, testN, testDelta) },
		"peosOut": func() { PEOSEpsilons(1, 1, testN, 10, testDelta) },
		"peosNR":  func() { PEOSEpsilons(1, 10, testN, 0, testDelta) },
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

// handCalibration is the ε_l derivation PlanShuffle replaced, written
// out the way its four callers wrote it: GRR inverts its bound at d;
// SOLH takes d' from Equation (5) at m and inverts Theorem 3 at d'.
func handCalibration(epsC float64, d, n int, delta float64, oracle Oracle) (useGRR bool, dPrime int, epsL float64, err error) {
	useGRR = oracle == GRR || oracle == Auto && PreferGRR(epsC, d, n, delta)
	if useGRR {
		epsL, err = LocalEpsilonGRR(epsC, d, n, delta)
		return true, d, epsL, err
	}
	m := BlanketM(epsC, n, delta)
	dPrime = OptimalDPrime(m, d)
	epsL, err = LocalEpsilonSOLH(epsC, dPrime, n, delta)
	return false, dPrime, epsL, err
}

// TestPlanShuffleMatchesHandCalibration pins PlanShuffle's amplified
// candidate to the hand chain at every grid point. Where PlanShuffle
// returns that candidate the plan itself is compared; where it returns
// the unamplified plan (epsL = epsC, less variance) the candidate is
// read through planAmplified.
func TestPlanShuffleMatchesHandCalibration(t *testing.T) {
	planned, amplified := 0, 0
	for _, epsC := range []float64{0.25, 0.5, 1, 2} {
		for _, d := range []int{2, 8, 64, 42178} {
			for _, n := range []int{1000, 6667, 100000} {
				for _, delta := range []float64{1e-6, 1e-9} {
					for _, oracle := range []Oracle{GRR, SOLH, Auto} {
						useGRR, dPrime, epsL, wantErr := handCalibration(epsC, d, n, delta, oracle)
						p, err := PlanShuffle(epsC, d, n, delta, oracle)
						at := fmt.Sprintf("epsC=%v d=%d n=%d delta=%v oracle=%d", epsC, d, n, delta, oracle)
						if err != nil {
							t.Errorf("%s: %v", at, err)
							continue
						}
						planned++
						if p.NR != 0 || p.Achieved.EpsL != p.EpsL || p.Achieved.EpsS != p.EpsL || math.Abs(p.Achieved.EpsC-epsC) > 1e-12 {
							t.Errorf("%s: plan %+v does not meet the target", at, p)
						}
						amp := p
						if p.EpsL == epsC && p.Achieved.EpsC == epsC {
							amp, err = planAmplified(epsC, d, n, delta, oracle)
						} else {
							amplified++
						}
						if wantErr != nil {
							if !errors.Is(err, ErrNoAmplification) {
								t.Errorf("%s: amplified candidate err = %v, want ErrNoAmplification like %v", at, err, wantErr)
							}
							continue
						}
						if err != nil {
							t.Errorf("%s: %v", at, err)
							continue
						}
						if amp.UseGRR != useGRR || amp.DPrime != dPrime || math.Float64bits(amp.EpsL) != math.Float64bits(epsL) {
							t.Errorf("%s: amplified (GRR=%v, d'=%d, epsL=%v), hand chain (GRR=%v, d'=%d, epsL=%v)",
								at, amp.UseGRR, amp.DPrime, amp.EpsL, useGRR, dPrime, epsL)
						}
					}
				}
			}
		}
	}
	if planned != 288 || amplified == 0 {
		t.Fatalf("planned %d of 288 grid points, %d of them amplified", planned, amplified)
	}

	// Too few reports to amplify: every oracle plans epsL = epsC, whose
	// guarantee is epsC exactly.
	for _, oracle := range []Oracle{GRR, SOLH, Auto} {
		p, err := PlanShuffle(0.5, 64, 10, 1e-9, oracle)
		if err != nil || p.EpsL != 0.5 || p.Achieved.EpsC != 0.5 {
			t.Errorf("oracle %d at n=10: plan %v, err %v; want epsL = epsC = 0.5", oracle, p, err)
		}
		if _, err := planAmplified(0.5, 64, 10, 1e-9, oracle); !errors.Is(err, ErrNoAmplification) {
			t.Errorf("oracle %d at n=10: amplified candidate err = %v, want ErrNoAmplification", oracle, err)
		}
	}

	// A basic-model plan renders without the fake count or epsS.
	p, err := PlanShuffle(1, 64, 6667, 1e-9, SOLH)
	if err != nil {
		t.Fatal(err)
	}
	s := p.String()
	if want := "SOLH(d'=8, epsL=2.7234) -> epsC=1.0000 var="; !strings.HasPrefix(s, want) {
		t.Errorf("String() = %q, want prefix %q", s, want)
	}
	if strings.Contains(s, "nr=") || strings.Contains(s, "epsS") {
		t.Errorf("String() = %q renders fakes for an NR = 0 plan", s)
	}
}

// candidateVariances prices PlanShuffle's two candidates from the
// closed forms alone: the oracle at epsL = epsC with d' found by brute
// force, and the hand-calibrated amplified chain (+Inf where it has no
// positive epsL).
func candidateVariances(epsC float64, d, n int, delta float64, oracle Oracle) (plain, amplified float64) {
	e := math.Exp(epsC)
	plain, amplified = math.Inf(1), math.Inf(1)
	if oracle != SOLH {
		plain = (e + float64(d) - 2) / (float64(n) * (e - 1) * (e - 1))
		if v, err := VarianceGRR(epsC, d, n, delta); err == nil {
			amplified = v
		}
	}
	if oracle != GRR {
		for dp := 2; dp <= min(d, 4096); dp++ {
			if v, err := VarianceSOLHAt(e+float64(dp)-1, dp, n); err == nil && v < plain {
				plain = v
			}
		}
		if v, _, err := VarianceSOLH(epsC, d, n, delta); err == nil && v < amplified {
			amplified = v
		}
	}
	return plain, amplified
}

// TestPlanShuffleNeverPlansBelowTarget: an epsC-LDP oracle is already
// (epsC, 0)-DP after any shuffle, so no plan spends less local budget
// than its central target, and none has more variance than either
// candidate.
func TestPlanShuffleNeverPlansBelowTarget(t *testing.T) {
	for _, epsC := range []float64{0.25, 0.5, 1, 2, 4} {
		for _, d := range []int{2, 8, 32, 64, 1024, 42178} {
			for _, n := range []int{10, 100, 800, 1000, 6667, 100000} {
				for _, delta := range []float64{1e-6, 1e-9} {
					for _, oracle := range []Oracle{GRR, SOLH, Auto} {
						at := fmt.Sprintf("epsC=%v d=%d n=%d delta=%v oracle=%d", epsC, d, n, delta, oracle)
						p, err := PlanShuffle(epsC, d, n, delta, oracle)
						if err != nil {
							t.Errorf("%s: %v", at, err)
							continue
						}
						if p.EpsL < epsC {
							t.Errorf("%s: planned epsL = %v below the target", at, p.EpsL)
						}
						plain, amplified := candidateVariances(epsC, d, n, delta, oracle)
						if p.Variance > plain*(1+1e-12) || p.Variance > amplified*(1+1e-12) {
							t.Errorf("%s: plan variance %.6e, candidates %.6e (epsL = epsC) and %.6e (amplified)", at, p.Variance, plain, amplified)
						}
					}
				}
			}
		}
	}
}

// examples/continual_monitor plans its defaults (eps 1, 800 reports,
// d = 32) at the variance of plain SOLH at epsL = 1, about 4.6e-3; the
// amplified plan alone read 2.0e-2 there.
func TestPlanShuffleContinualMonitorDefaults(t *testing.T) {
	p, err := PlanShuffle(1, 32, 800, 1e-9, SOLH)
	if err != nil {
		t.Fatal(err)
	}
	if p.Variance > 4.7e-3 || p.EpsL != 1 {
		t.Errorf("continual_monitor's default plan %s, want epsL = 1 at variance <= 4.7e-3", p)
	}
}
