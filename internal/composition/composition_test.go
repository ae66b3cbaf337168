package composition

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAdvancedFormula(t *testing.T) {
	// Hand check at eps=0.1, k=100, delta'=1e-6.
	g, err := Advanced(Guarantee{Eps: 0.1, Delta: 1e-9}, 100, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.1*math.Sqrt(200*math.Log(1e6)) + 100*0.1*(math.Exp(0.1)-1)
	if math.Abs(g.Eps-want) > 1e-12 {
		t.Fatalf("eps = %v, want %v", g.Eps, want)
	}
	if math.Abs(g.Delta-(100e-9+1e-6)) > 1e-18 {
		t.Fatalf("delta = %v", g.Delta)
	}
}

func TestAdvancedBeatsBasicForManyRounds(t *testing.T) {
	// For small per-round eps and many rounds, advanced composition's
	// sqrt(k) scaling beats basic's linear k.
	per := Guarantee{Eps: 0.01, Delta: 0}
	const k = 10000
	adv, err := Advanced(per, k, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if adv.Eps >= per.Eps*float64(k) {
		t.Fatalf("advanced (%v) did not beat basic (%v)", adv.Eps, per.Eps*float64(k))
	}
}

func TestAdvancedValidation(t *testing.T) {
	if _, err := Advanced(Guarantee{Eps: 1}, 0, 1e-6); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := Advanced(Guarantee{Eps: 1}, 2, 0); err == nil {
		t.Fatal("deltaPrime=0 accepted")
	}
}

func TestSplitBasic(t *testing.T) {
	g, err := SplitBasic(Guarantee{Eps: 1.2, Delta: 6e-9}, 6)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g.Eps-0.2) > 1e-12 || math.Abs(g.Delta-1e-9) > 1e-21 {
		t.Fatalf("SplitBasic = %+v", g)
	}
}

// Property: SplitAdvanced's result, recomposed, stays within budget.
func TestQuickSplitAdvancedSound(t *testing.T) {
	f := func(epsRaw, kRaw uint8) bool {
		total := Guarantee{Eps: 0.1 + float64(epsRaw)/64, Delta: 1e-8}
		k := 1 + int(kRaw%50)
		per, err := SplitAdvanced(total, k)
		if err != nil {
			return false
		}
		back, err := Advanced(per, k, total.Delta/2)
		if err != nil {
			return false
		}
		return back.Eps <= total.Eps*1.0001 && back.Delta <= total.Delta*1.0001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMaxSplitPicksBetter(t *testing.T) {
	// Few rounds, big budget: basic wins (advanced's sqrt overhead
	// dominates at k=2).
	total := Guarantee{Eps: 2, Delta: 1e-8}
	g, err := MaxSplit(total, 2)
	if err != nil {
		t.Fatal(err)
	}
	basic, _ := SplitBasic(total, 2)
	if g.Eps < basic.Eps {
		t.Fatalf("MaxSplit (%v) worse than basic (%v)", g.Eps, basic.Eps)
	}
	// Many rounds, small budget: advanced should win.
	total2 := Guarantee{Eps: 1, Delta: 1e-6}
	g2, err := MaxSplit(total2, 500)
	if err != nil {
		t.Fatal(err)
	}
	basic2, _ := SplitBasic(total2, 500)
	if g2.Eps <= basic2.Eps {
		t.Fatalf("MaxSplit (%v) did not beat basic (%v) at k=500", g2.Eps, basic2.Eps)
	}
}

func TestMaxSplitPureEps(t *testing.T) {
	// delta = 0 rules out advanced composition; must fall back to
	// basic.
	g, err := MaxSplit(Guarantee{Eps: 1, Delta: 0}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g.Eps-0.1) > 1e-12 {
		t.Fatalf("pure-eps MaxSplit = %v", g.Eps)
	}
}

func TestSplitAdvancedNeedsDelta(t *testing.T) {
	if _, err := SplitAdvanced(Guarantee{Eps: 1, Delta: 0}, 5); err == nil {
		t.Fatal("delta=0 accepted")
	}
}
