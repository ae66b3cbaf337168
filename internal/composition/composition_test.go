package composition

import (
	"math"
	"testing"
	"testing/quick"
)

// advanced is Dwork–Rothblum–Vadhan advanced composition, the bound the
// ledger composed with before it composed exactly: k runs of an
// (eps, delta)-DP mechanism are
// (eps*sqrt(2k ln(1/slack)) + k*eps*(e^eps - 1), k*delta + slack)-DP.
// It stays here as a test oracle: exact composition must never be
// looser.
func advanced(per Guarantee, k int, slack float64) Guarantee {
	kf := float64(k)
	return Guarantee{
		Eps:   per.Eps*math.Sqrt(2*kf*math.Log(1/slack)) + kf*per.Eps*(math.Exp(per.Eps)-1),
		Delta: kf*per.Delta + slack,
	}
}

// splitAdvanced is the old inverse of advanced: the largest per-round
// eps whose k-fold advanced composition, with half the total delta as
// slack, stays within the total, at per-round delta total.Delta/(2k).
func splitAdvanced(total Guarantee, k int) Guarantee {
	perDelta := total.Delta / 2 / float64(k)
	lo, hi := 0.0, total.Eps
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if advanced(Guarantee{Eps: mid, Delta: perDelta}, k, total.Delta/2).Eps <= total.Eps {
			lo = mid
		} else {
			hi = mid
		}
	}
	return Guarantee{Eps: lo, Delta: perDelta}
}

func TestAdvancedFormula(t *testing.T) {
	// Hand check at eps=0.1, k=100, delta'=1e-6.
	g := advanced(Guarantee{Eps: 0.1, Delta: 1e-9}, 100, 1e-6)
	want := 0.1*math.Sqrt(200*math.Log(1e6)) + 100*0.1*(math.Exp(0.1)-1)
	if math.Abs(g.Eps-want) > 1e-12 {
		t.Fatalf("eps = %v, want %v", g.Eps, want)
	}
	if math.Abs(g.Delta-(100e-9+1e-6)) > 1e-18 {
		t.Fatalf("delta = %v", g.Delta)
	}
}

// The oracle comparisons reach the regime where the advanced bound is
// the tighter old one, and exact composition is tighter still there.
func TestAdvancedBeatsBasicForManyRounds(t *testing.T) {
	per := Guarantee{Eps: 0.01, Delta: 0}
	const k = 10000
	adv := advanced(per, k, 1e-6)
	if adv.Eps >= per.Eps*float64(k) {
		t.Fatalf("advanced (%v) did not beat basic (%v)", adv.Eps, per.Eps*float64(k))
	}
	if got := Delta(per, k, adv.Eps); got > adv.Delta {
		t.Fatalf("exact delta %v at the advanced eps %v, above the advanced bound's %v", got, adv.Eps, adv.Delta)
	}
}

// enumerate is the exact composition by brute force: the hockey-stick
// divergence of the k-fold product of Kairouz, Oh and Viswanath's
// worst-case mechanism, whose one run on neighbors 0 and 1 gives the
// outcome distributions
//
//	P0 = (delta, (1-delta) e^eps/(1+e^eps), (1-delta)/(1+e^eps), 0)
//	P1 = (0, (1-delta)/(1+e^eps), (1-delta) e^eps/(1+e^eps), delta).
func enumerate(per Guarantee, k int, eps float64) float64 {
	e := math.Exp(per.Eps)
	p0 := [4]float64{per.Delta, (1 - per.Delta) * e / (1 + e), (1 - per.Delta) / (1 + e), 0}
	p1 := [4]float64{0, p0[2], p0[1], per.Delta}
	sum := 0.0
	outcomes := 1 << (2 * k)
	for o := 0; o < outcomes; o++ {
		a, b := 1.0, 1.0
		for i := 0; i < k; i++ {
			a *= p0[o>>(2*i)&3]
			b *= p1[o>>(2*i)&3]
		}
		sum += max(0, a-math.Exp(eps)*b)
	}
	return sum
}

// Ground truth: for k <= 6, Delta is the enumerated divergence, to
// 1e-12 relative, or 1e-15 absolute where delta is smaller, on a grid
// that holds eps at every boundary (k-2l)*eps0 where a term turns on.
func TestDeltaMatchesEnumeration(t *testing.T) {
	worstRel, worstAbs := 0.0, 0.0
	for k := 1; k <= 6; k++ {
		for _, eps0 := range []float64{0.01, 0.1, 0.5, 1, 2} {
			for _, delta0 := range []float64{0, 1e-9, 1e-4, 1e-2} {
				epsGrid := []float64{0, 0.005, 0.05, 0.3, 1, 2.5, 5}
				for j := -k; j <= k; j++ {
					if x := float64(j) * eps0; x >= 0 {
						epsGrid = append(epsGrid, x)
					}
				}
				for _, eps := range epsGrid {
					per := Guarantee{Eps: eps0, Delta: delta0}
					got, want := Delta(per, k, eps), enumerate(per, k, eps)
					diff := math.Abs(got - want)
					if diff > 1e-12*want && diff > 1e-15 {
						t.Errorf("k=%d, per (%v, %v), eps %v: Delta = %.17g, enumeration %.17g", k, eps0, delta0, eps, got, want)
					}
					worstAbs = max(worstAbs, diff)
					if want > 1e-6 {
						worstRel = max(worstRel, diff/want)
					}
				}
			}
		}
	}
	t.Logf("largest gap to the enumeration: %.2g absolute, %.2g relative where delta > 1e-6", worstAbs, worstRel)
}

// allTerms is Delta with s summed over every positive term, a
// reference for the windowed sum.
func allTerms(per Guarantee, k int, eps float64) float64 {
	kf := float64(k)
	logP, logQ := -math.Log1p(math.Exp(per.Eps)), -math.Log1p(math.Exp(-per.Eps))
	lgK, _ := math.Lgamma(kf + 1)
	s := 0.0
	for l := 0; l <= k; l++ {
		x := eps - float64(k-2*l)*per.Eps
		if x >= 0 {
			break
		}
		lgL, _ := math.Lgamma(float64(l) + 1)
		lgR, _ := math.Lgamma(float64(k-l) + 1)
		s += math.Exp(lgK-lgL-lgR+float64(k-l)*logQ+float64(l)*logP) * -math.Expm1(x)
	}
	return -math.Expm1(kf*math.Log1p(-per.Delta) + math.Log1p(-s))
}

// The window never reads below the full sum — the Hoeffding bound on
// the skipped terms is added back — and reads above it only by that
// bound, up to k = 1e5.
func TestDeltaNeverBelowAllTerms(t *testing.T) {
	for _, k := range []int{1, 7, 50, 300, 2000, 10000, 100000} {
		for _, eps0 := range []float64{1e-3, 0.01, 0.1, 1} {
			for _, delta0 := range []float64{0, 1e-12} {
				kf := float64(k)
				for _, eps := range []float64{0, 0.5 * math.Sqrt(kf) * eps0, 2 * math.Sqrt(kf) * eps0, 5 * math.Sqrt(kf) * eps0, kf * eps0 / 2} {
					per := Guarantee{Eps: eps0, Delta: delta0}
					got, want := Delta(per, k, eps), allTerms(per, k, eps)
					if got < want || got > want*(1+1e-12)+1e-40 {
						t.Errorf("k=%d, per (%v, %v), eps %v: window %.17g, all terms %.17g", k, eps0, delta0, eps, got, want)
					}
				}
			}
		}
	}
}

// The old bounds are oracles: at basic composition's eps the exact
// delta is within basic's k*delta, and at the advanced bound's eps
// within k*delta + slack. So no exact ledger admits fewer epochs than
// a naive or an advanced one did.
func TestDeltaWithinOldBounds(t *testing.T) {
	const rel = 1 + 1e-12
	for _, eps0 := range []float64{1e-3, 0.01, 0.1, 0.5, 1, 2} {
		for _, delta0 := range []float64{0, 1e-9, 1e-6} {
			for _, k := range []int{1, 2, 5, 10, 50, 100, 1000, 10000} {
				per := Guarantee{Eps: eps0, Delta: delta0}
				kf := float64(k)
				if got := Delta(per, k, kf*eps0); got > kf*delta0*rel {
					t.Errorf("per (%v, %v), k=%d: exact delta %v at the basic eps, above basic's %v", eps0, delta0, k, got, kf*delta0)
				}
				for _, slack := range []float64{1e-9, 1e-6} {
					adv := advanced(per, k, slack)
					if got := Delta(per, k, adv.Eps); got > adv.Delta*rel {
						t.Errorf("per (%v, %v), k=%d, slack %v: exact delta %v at the advanced eps %v, above %v", eps0, delta0, k, slack, got, adv.Eps, adv.Delta)
					}
				}
			}
		}
	}
}

// The cost guard: one evaluation reads O(sqrt(k)) terms, however deep
// in the tail eps sits, so a ledger's MaxEpochs stays cheap at millions
// of epochs.
func TestDeltaTermsAreOSqrtK(t *testing.T) {
	for _, k := range []int{1, 10, 1000, 100000, 5599846, 10000000} {
		kf := float64(k)
		for _, eps0 := range []float64{1e-4, 0.01, 1} {
			for _, eps := range []float64{0, math.Sqrt(kf) * eps0, kf * eps0 / 2, kf * eps0 * 0.99} {
				s, terms := loss(eps0, k, eps)
				if limit := int(15*math.Sqrt(kf)) + 17; terms > limit || terms > k+1 {
					t.Errorf("k=%d, eps0 %v, eps %v: %d terms, above %d", k, eps0, eps, terms, min(limit, k+1))
				}
				if s < 0 || s > 1 {
					t.Errorf("k=%d, eps0 %v, eps %v: s = %v", k, eps0, eps, s)
				}
			}
		}
	}
}

// One epoch is the total, bit for bit, so a one-epoch continual plan
// is the one-shot plan; and the paper's TreeHist split of (1.2, 6e-9)
// over 6 rounds affords every round at least its even share.
func TestSplitBasic(t *testing.T) {
	for _, total := range []Guarantee{{1, 1e-9}, {4, 1e-6}, {0.3, 0}, {8, 0.5}} {
		if g, err := Split(total, 1, total.Delta); err != nil || g != total {
			t.Errorf("one epoch of %+v splits to %+v, %v", total, g, err)
		}
	}
	total := Guarantee{Eps: 1.2, Delta: 6e-9}
	g, err := Split(total, 6, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if g.Eps < 0.2 || g.Delta != 1e-9 {
		t.Fatalf("Split = %+v, want at least (0.2, 1e-9)", g)
	}
	if d := Delta(g, 6, total.Eps); d > total.Delta*tol {
		t.Fatalf("6 rounds of %+v compose to delta %v, above %v", g, d, total.Delta)
	}
}

// For k in [1, 400], Split at total.Delta/k never affords less than the
// even basic split, and at total.Delta/(2k) never less than the
// advanced split. The log holds the per-epoch split table of
// EXPERIMENTS.md: the larger of the even and the advanced split, which
// the planner spent before it composed exactly, then exact composition
// at both per-epoch deltas.
func TestSplitNeverBelowOldSplits(t *testing.T) {
	for _, totalEps := range []float64{1, 4, 8} {
		total := Guarantee{Eps: totalEps, Delta: 1e-9}
		for k := 1; k <= 400; k++ {
			kf := float64(k)
			basic, err := Split(total, k, total.Delta/kf)
			if err != nil {
				t.Fatal(err)
			}
			if basic.Eps < totalEps/kf {
				t.Errorf("total %v, k=%d: Split at delta/k = %v, below the even split %v", totalEps, k, basic.Eps, totalEps/kf)
			}
			half, err := Split(total, k, total.Delta/(2*kf))
			if err != nil {
				t.Fatal(err)
			}
			adv := splitAdvanced(total, k)
			if half.Eps < adv.Eps {
				t.Errorf("total %v, k=%d: Split at delta/(2k) = %v, below the advanced split %v", totalEps, k, half.Eps, adv.Eps)
			}
			switch k {
			case 10, 30, 100, 365:
				t.Logf("eps_T=%v k=%d: max(basic, advanced) %.4f, exact at delta/k %.4f, exact at delta/(2k) %.4f",
					totalEps, k, max(adv.Eps, totalEps/kf), basic.Eps, half.Eps)
			}
		}
	}
}

// Property: the advanced oracle's split recomposes within the total
// under the advanced bound, Split at the same per-round delta affords
// at least as much, and Split's result composes within the total.
func TestQuickSplitAdvancedSound(t *testing.T) {
	f := func(epsRaw, kRaw uint8) bool {
		total := Guarantee{Eps: 0.1 + float64(epsRaw)/64, Delta: 1e-8}
		k := 1 + int(kRaw%50)
		per := splitAdvanced(total, k)
		back := advanced(per, k, total.Delta/2)
		if back.Eps > total.Eps*1.0001 || back.Delta > total.Delta*1.0001 {
			return false
		}
		exact, err := Split(total, k, per.Delta)
		if err != nil {
			return false
		}
		return exact.Eps >= per.Eps && Delta(exact, k, total.Eps) <= total.Delta*tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Under delta = 0 the split is the even one: any eps past total/k puts
// mass on the all-eps0 outcome.
func TestSplitPureEps(t *testing.T) {
	for _, k := range []int{1, 2, 3, 7, 10, 100} {
		g, err := Split(Guarantee{Eps: 1, Delta: 0}, k, 0)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(g.Eps-1/float64(k)) > 1e-12 || g.Delta != 0 {
			t.Errorf("k=%d: pure-eps Split = %+v, want (%v, 0)", k, g, 1/float64(k))
		}
		if d := Delta(g, k, 1); d != 0 {
			t.Errorf("k=%d: %+v composes to delta %v under a pure total", k, g, d)
		}
	}
}

func TestSplitValidation(t *testing.T) {
	good := Guarantee{Eps: 1, Delta: 1e-6}
	for _, c := range []struct {
		total    Guarantee
		k        int
		perDelta float64
	}{
		{good, 0, 1e-7},
		{good, 2, 1},
		{good, 2, -1e-9},
		{Guarantee{Eps: -1, Delta: 1e-6}, 2, 1e-7},
		{Guarantee{Eps: 1, Delta: 1}, 2, 1e-7},
		{good, 11, 1e-7}, // eleven per-epoch deltas alone exceed the total
	} {
		if g, err := Split(c.total, c.k, c.perDelta); err == nil {
			t.Errorf("Split(%+v, %d, %v) = %+v, want an error", c.total, c.k, c.perDelta, g)
		}
	}
}
