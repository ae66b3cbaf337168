package amplify

import (
	"fmt"
	"math"
	"testing"

	"shuffledp/internal/budget"
	"shuffledp/internal/composition"
)

func TestPEOSEpsilonsFormulas(t *testing.T) {
	// Corollary 8 hand check.
	epsL, dPrime, nr := 1.0, 10, 5000
	L := 14 * math.Log(2/testDelta)
	g := PEOSEpsilons(epsL, dPrime, testN, nr, testDelta)
	wantS := math.Sqrt(L * 10 / 5000)
	if math.Abs(g.EpsS-wantS) > 1e-12 {
		t.Fatalf("epsS = %v, want %v", g.EpsS, wantS)
	}
	blanket := float64(testN-1)/(math.E+9) + 500
	wantC := math.Sqrt(L / blanket)
	if math.Abs(g.EpsC-wantC) > 1e-12 {
		t.Fatalf("epsC = %v, want %v", g.EpsC, wantC)
	}
	if g.EpsL != epsL {
		t.Fatalf("epsL = %v", g.EpsL)
	}
}

func TestPEOSFakesImproveEpsC(t *testing.T) {
	// More fakes -> smaller epsC (more blanket noise), and epsC with
	// fakes is below the plain shuffle bound.
	plain := CentralEpsilonSOLH(1, 10, testN, testDelta)
	withFakes := PEOSEpsilons(1, 10, testN, 100000, testDelta)
	if withFakes.EpsC >= plain {
		t.Fatalf("fakes did not amplify: %v >= %v", withFakes.EpsC, plain)
	}
	fewer := PEOSEpsilons(1, 10, testN, 1000, testDelta)
	if withFakes.EpsC >= fewer.EpsC {
		t.Fatal("more fakes should give smaller epsC")
	}
	// epsS depends only on the fakes; more fakes -> smaller epsS.
	if withFakes.EpsS >= fewer.EpsS {
		t.Fatal("more fakes should give smaller epsS")
	}
}

func TestPEOSLocalEpsilonRoundTrip(t *testing.T) {
	// epsL -> (epsC with fakes) -> epsL.
	epsL, dPrime, nr := 2.0, 50, 20000
	g := PEOSEpsilons(epsL, dPrime, testN, nr, testDelta)
	got, m, err := PEOSLocalEpsilon(g.EpsC, dPrime, testN, nr, testDelta)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-epsL) > 1e-9 {
		t.Fatalf("roundtrip gave %v, want %v", got, epsL)
	}
	wantM := math.Exp(epsL) + float64(dPrime) - 1
	if math.Abs(m-wantM) > 1e-6 {
		t.Fatalf("m = %v, want %v", m, wantM)
	}
}

func TestPEOSLocalEpsilonOverblanketed(t *testing.T) {
	// If the fakes alone push epsC below target, no epsL exists.
	_, _, err := PEOSLocalEpsilon(5, 2, testN, testN*10, testDelta)
	if err == nil {
		t.Fatal("expected failure when fakes exceed the budget")
	}
}

func TestPEOSOptimalDPrimeDerivation(t *testing.T) {
	// The chosen d' must (locally) minimize PEOSVariance at fixed
	// epsC and nr, confirming the derivation in DESIGN.md §3.
	epsC, nr := 0.8, 50000
	dStar := PEOSOptimalDPrime(epsC, testN, nr, 1<<30, testDelta)
	varAt := func(dp int) float64 {
		_, m, err := PEOSLocalEpsilon(epsC, dp, testN, nr, testDelta)
		if err != nil {
			return math.Inf(1)
		}
		v, err := PEOSVariance(m, dp, testN, nr, false)
		if err != nil {
			return math.Inf(1)
		}
		return v
	}
	vStar := varAt(dStar)
	if math.IsInf(vStar, 1) {
		t.Fatalf("optimal d'=%d infeasible", dStar)
	}
	for _, dp := range []int{dStar - 1, dStar + 1, dStar - 10, dStar + 10, dStar / 2, dStar * 2} {
		if dp < 2 {
			continue
		}
		if v := varAt(dp); v < vStar*0.999 {
			t.Errorf("d'=%d (var %.4e) beats chosen %d (var %.4e)", dp, v, dStar, vStar)
		}
	}
}

func TestPEOSOptimalDPrimeSmallerThanPlain(t *testing.T) {
	// §VI-C: "introducing nr will reduce the optimal d'" — wait, the
	// derived formula grows with nr; what shrinks is the optimal d'
	// at the *same* m because part of the blanket now comes free.
	// We verify the formula against brute force instead (above) and
	// here only that the function respects its clamps.
	if got := PEOSOptimalDPrime(1, testN, 1, 10, testDelta); got != 10 {
		t.Fatalf("clamp to maxD failed: %d", got)
	}
	if got := PEOSOptimalDPrime(1e-6, 2, 1, 1000, testDelta); got != 2 {
		t.Fatalf("clamp to 2 failed: %d", got)
	}
}

func TestPEOSVarianceGRRvsSOLHShape(t *testing.T) {
	// At the SAME output-space size GRR keeps more information than
	// hashing, so its variance is lower...
	m := 5000.0
	vsSame, err := PEOSVariance(m, 500, testN, 1000, false)
	if err != nil {
		t.Fatal(err)
	}
	vgSame, err := PEOSVariance(m, 500, testN, 1000, true)
	if err != nil {
		t.Fatal(err)
	}
	if vgSame >= vsSame {
		t.Fatalf("GRR (%v) should beat SOLH (%v) at equal output space", vgSame, vsSame)
	}
	// ... but GRR is pinned to outputSpace = d while SOLH can choose a
	// small d', which is where SOLH wins (§IV-B3) — here at d = 42178
	// with m = 50000.
	m = 50000
	d := 42178
	vg, err := PEOSVariance(m, d, testN, 1000, true)
	if err != nil {
		t.Fatal(err)
	}
	dPrime := OptimalDPrime(m, d)
	vs, err := PEOSVariance(m, dPrime, testN, 1000, false)
	if err != nil {
		t.Fatal(err)
	}
	if vs >= vg {
		t.Fatalf("SOLH at d'=%d (%v) should beat GRR at d=%d (%v)", dPrime, vs, d, vg)
	}
}

func TestPEOSVarianceErrors(t *testing.T) {
	if _, err := PEOSVariance(10, 20, testN, 10, false); err == nil {
		t.Fatal("expected error for m <= outputSpace")
	}
	if _, err := PEOSVariance(10, 1, testN, 10, false); err == nil {
		t.Fatal("expected error for outputSpace < 2")
	}
}

func TestPlanPEOSFeasibleAndOptimalish(t *testing.T) {
	rq := Requirements{
		Eps1: 0.5, Eps2: 2, Eps3: 4,
		D: testD, N: testN, Delta: testDelta,
	}
	plan, err := PlanPEOS(rq)
	if err != nil {
		t.Fatal(err)
	}
	// All three budgets respected.
	if plan.Achieved.EpsC > rq.Eps1*1.0001 {
		t.Errorf("epsC %v exceeds %v", plan.Achieved.EpsC, rq.Eps1)
	}
	if plan.Achieved.EpsS > rq.Eps2*1.0001 {
		t.Errorf("epsS %v exceeds %v", plan.Achieved.EpsS, rq.Eps2)
	}
	if plan.EpsL > rq.Eps3*1.0001 {
		t.Errorf("epsL %v exceeds %v", plan.EpsL, rq.Eps3)
	}
	if plan.NR <= 0 {
		t.Error("plan has no fake reports")
	}
	if plan.Variance <= 0 || math.IsInf(plan.Variance, 0) {
		t.Errorf("variance = %v", plan.Variance)
	}
	// At d=915 with a generous local budget, SOLH should be chosen.
	if plan.UseGRR {
		t.Error("expected SOLH to win at d=915")
	}
	if plan.String() == "" {
		t.Error("empty String()")
	}
}

func TestPlanContinual(t *testing.T) {
	rq := Requirements{
		Eps1: 2, Eps2: 8, Eps3: 16,
		D: testD, N: testN, Delta: 1e-6,
	}
	// One epoch is exactly the one-shot plan.
	single, per1, err := PlanContinual(rq, 1)
	if err != nil {
		t.Fatal(err)
	}
	oneShot, err := PlanPEOS(rq)
	if err != nil {
		t.Fatal(err)
	}
	if single.Variance != oneShot.Variance || per1.Eps != rq.Eps1 {
		t.Fatalf("1-epoch plan (var %v, per eps %v) differs from one-shot (var %v, eps %v)",
			single.Variance, per1.Eps, oneShot.Variance, rq.Eps1)
	}
	// More epochs: less budget per epoch, more variance per epoch; the
	// per-epoch guarantee must fit the total and never fall below the
	// even basic split.
	prevVar := single.Variance
	for _, epochs := range []int{4, 16, 64} {
		plan, per, err := PlanContinual(rq, epochs)
		if err != nil {
			t.Fatalf("epochs=%d: %v", epochs, err)
		}
		if plan.Variance <= prevVar {
			t.Fatalf("epochs=%d: variance %v did not grow from %v", epochs, plan.Variance, prevVar)
		}
		prevVar = plan.Variance
		if per.Eps < rq.Eps1/float64(epochs)*(1-1e-9) {
			t.Fatalf("epochs=%d: per-epoch eps %v below the even split %v", epochs, per.Eps, rq.Eps1/float64(epochs))
		}
		if plan.Achieved.EpsC > per.Eps*1.0001 {
			t.Fatalf("epochs=%d: plan epsC %v exceeds the per-epoch budget %v", epochs, plan.Achieved.EpsC, per.Eps)
		}
	}
	// At many epochs exact composition affords each epoch strictly more
	// than total/epochs.
	_, per, err := PlanContinual(rq, 64)
	if err != nil {
		t.Fatal(err)
	}
	if per.Eps <= rq.Eps1/64 {
		t.Fatalf("64 epochs: per-epoch eps %v, want strictly more than the basic split %v", per.Eps, rq.Eps1/64)
	}
	if _, _, err := PlanContinual(rq, 0); err == nil {
		t.Fatal("0 epochs accepted")
	}
}

// maxSplit is the split PlanContinual made before it composed exactly:
// the larger of the even split (total/k at delta/k) and the
// Dwork–Rothblum–Vadhan split (at delta/(2k), half the total delta as
// the bound's slack). It stays here to build reference plans.
func maxSplit(total composition.Guarantee, k int) composition.Guarantee {
	kf := float64(k)
	slack, perDelta := total.Delta/2, total.Delta/(2*kf)
	lo, hi := 0.0, total.Eps
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if mid*math.Sqrt(2*kf*math.Log(1/slack))+kf*mid*(math.Exp(mid)-1) <= total.Eps {
			lo = mid
		} else {
			hi = mid
		}
	}
	if lo > total.Eps/kf {
		return composition.Guarantee{Eps: lo, Delta: perDelta}
	}
	return composition.Guarantee{Eps: total.Eps / kf, Delta: total.Delta / kf}
}

// maxSplitPlan is PlanContinual as it planned with maxSplit.
func maxSplitPlan(rq Requirements, k int) (Plan, error) {
	per := rq
	for _, eps := range []*float64{&per.Eps1, &per.Eps2, &per.Eps3} {
		g := maxSplit(composition.Guarantee{Eps: *eps, Delta: rq.Delta}, k)
		*eps = g.Eps
		per.Delta = min(per.Delta, g.Delta)
	}
	return PlanPEOS(per)
}

// Exact composition never plans worse than the split it replaced: for
// the drill's, the analyzer's and two deployment-sized targets, over 1
// to 365 epochs, no plan carries more variance than the maxSplit
// reference, and up to 10 epochs each keeps the reference's oracle, d'
// and fakes. A ledger built from the per-epoch guarantee admits
// exactly the planned epochs, as the analyzer checks at startup.
func TestPlanContinualNoWorseThanMaxSplit(t *testing.T) {
	for _, rq := range []Requirements{
		{Eps1: 4, Eps2: 8, Eps3: 8, D: 8, N: 80, Delta: 1e-6},
		{Eps1: 4, Eps2: 8, Eps3: 8, D: 16, N: 400, Delta: 1e-9},
		{Eps1: 1, Eps2: 3, Eps3: 8, D: 64, N: 60000, Delta: 1e-10},
		{Eps1: 2, Eps2: 8, Eps3: 16, D: 64, N: 10000, Delta: 1e-6},
	} {
		for _, k := range []int{1, 2, 3, 5, 10, 20, 30, 64, 100, 365} {
			name := fmt.Sprintf("(%v, %v, %v) d=%d n=%d delta=%g over %d epochs", rq.Eps1, rq.Eps2, rq.Eps3, rq.D, rq.N, rq.Delta, k)
			plan, per, err := PlanContinual(rq, k)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			ref, err := maxSplitPlan(rq, k)
			if err != nil {
				t.Fatalf("%s: the reference: %v", name, err)
			}
			if plan.Variance > ref.Variance {
				t.Errorf("%s: variance %v, above the maxSplit plan's %v", name, plan.Variance, ref.Variance)
			}
			if k <= 10 && (plan.UseGRR != ref.UseGRR || plan.DPrime != ref.DPrime || plan.NR != ref.NR) {
				t.Errorf("%s: planned %s, the maxSplit plan is %s", name, plan, ref)
			}
			l, err := budget.NewLedger(composition.Guarantee{Eps: rq.Eps1, Delta: rq.Delta}, per)
			if err != nil {
				t.Fatal(err)
			}
			if got := l.MaxEpochs(); got != k {
				t.Errorf("%s: a ledger of %+v admits %d epochs", name, per, got)
			}
			if k >= 64 {
				t.Logf("%s: per-epoch %+v, variance %.4g (maxSplit %.4g), nr %d (maxSplit %d)", name, per, plan.Variance, ref.Variance, plan.NR, ref.NR)
			}
		}
	}
}

func TestPlanPEOSTightLocalBudget(t *testing.T) {
	// With eps3 tiny, the plan must respect it and compensate with nr.
	rq := Requirements{
		Eps1: 0.5, Eps2: 1, Eps3: 0.2,
		D: 100, N: testN, Delta: testDelta,
	}
	plan, err := PlanPEOS(rq)
	if err != nil {
		t.Fatal(err)
	}
	if plan.EpsL > 0.2*1.0001 {
		t.Fatalf("epsL %v exceeds tight eps3", plan.EpsL)
	}
}

func TestPlanPEOSSmallDomainPrefersGRR(t *testing.T) {
	rq := Requirements{
		Eps1: 0.3, Eps2: 1, Eps3: 5,
		D: 2, N: testN, Delta: testDelta,
	}
	plan, err := PlanPEOS(rq)
	if err != nil {
		t.Fatal(err)
	}
	// d=2: GRR and SOLH(d'=2) coincide structurally; either is
	// acceptable but the output space must be 2.
	if plan.DPrime != 2 {
		t.Fatalf("output space %d, want 2", plan.DPrime)
	}
}

// A tight Eps2 (strong protection against colluding users) forces so
// many fake reports that they alone satisfy Eps1; the planner must
// still find the configuration rather than reporting infeasibility.
func TestPlanPEOSOverblanketedStillFeasible(t *testing.T) {
	rq := Requirements{
		Eps1: 2,    // loose server budget
		Eps2: 0.05, // very tight collusion budget -> nr huge
		Eps3: 4,
		D:    50, N: 100000, Delta: testDelta,
	}
	plan, err := PlanPEOS(rq)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Achieved.EpsC > rq.Eps1*1.0001 {
		t.Errorf("epsC %v exceeds %v", plan.Achieved.EpsC, rq.Eps1)
	}
	if plan.Achieved.EpsS > rq.Eps2*1.0001 {
		t.Errorf("epsS %v exceeds %v", plan.Achieved.EpsS, rq.Eps2)
	}
	// The fake budget must be enormous (>= 14 ln(2/delta) * 2 / eps2^2).
	if plan.NR < 100000 {
		t.Errorf("nr = %d, expected a massive fake budget", plan.NR)
	}
}

func TestPlanPEOSValidation(t *testing.T) {
	bad := []Requirements{
		{Eps1: 0, Eps2: 1, Eps3: 1, D: 10, N: 100, Delta: 1e-9},
		{Eps1: 1, Eps2: 1, Eps3: 1, D: 1, N: 100, Delta: 1e-9},
		{Eps1: 1, Eps2: 1, Eps3: 1, D: 10, N: 1, Delta: 1e-9},
		{Eps1: 1, Eps2: 1, Eps3: 1, D: 10, N: 100, Delta: 0},
	}
	for i, rq := range bad {
		if _, err := PlanPEOS(rq); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

// Cross-check: a planned configuration, evaluated through the forward
// corollary, reproduces its claimed guarantees.
func TestPlanPEOSSelfConsistent(t *testing.T) {
	rq := Requirements{Eps1: 0.8, Eps2: 3, Eps3: 6, D: 42178, N: 990002, Delta: testDelta}
	plan, err := PlanPEOS(rq)
	if err != nil {
		t.Fatal(err)
	}
	g := PEOSEpsilons(plan.EpsL, plan.DPrime, rq.N, plan.NR, rq.Delta)
	if math.Abs(g.EpsC-plan.Achieved.EpsC) > 1e-9 {
		t.Errorf("epsC mismatch: %v vs %v", g.EpsC, plan.Achieved.EpsC)
	}
	if math.Abs(g.EpsS-plan.Achieved.EpsS) > 1e-9 {
		t.Errorf("epsS mismatch: %v vs %v", g.EpsS, plan.Achieved.EpsS)
	}
}
