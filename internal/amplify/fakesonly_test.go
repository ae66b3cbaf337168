package amplify

import (
	"fmt"
	"math"
	"testing"
	"time"
)

// refFakesOnlyDelta is fakesOnlyDelta's reduction summed with nothing
// left out: every (X, Y) of the multinomial (GRR) or of the two
// binomials (SOLH), each term in log space.
func refFakesOnlyDelta(eps float64, nr, outputSpace int, grr bool) float64 {
	p := 1 / float64(outputSpace)
	e := math.Exp(eps)
	lf := make([]float64, nr+1)
	for k := range lf {
		lf[k], _ = math.Lgamma(float64(k + 1))
	}
	logFact := func(k int) float64 { return lf[k] }
	var delta float64
	for x := 0; x <= nr; x++ {
		for y := 0; y <= nr; y++ {
			var logPr, pC float64
			if grr {
				r := nr - x - y
				if r < 0 || (r > 0 && outputSpace == 2) {
					continue
				}
				logPr = logFact(nr) - logFact(x) - logFact(y) - logFact(r) + float64(x+y)*math.Log(p)
				if r > 0 {
					logPr += float64(r) * math.Log(1-2*p)
				}
			} else {
				logPr = 2*logFact(nr) - logFact(x) - logFact(nr-x) - logFact(y) - logFact(nr-y) +
					float64(x+y)*math.Log(p) + float64(2*nr-x-y)*math.Log(1-p)
				pC = p
			}
			gap := (1-pC)*max(0, 1-e*float64(y)/float64(1+x)) + pC*max(0, 1-e*float64(1+y)/float64(1+x))
			delta += math.Exp(logPr) * gap
		}
	}
	return delta
}

// bruteFakesOnlyDelta enumerates the fakes-only view itself, with no
// reduction: every multiset of nr+1 reports, its probability under
// victim values v and v′, and δ(ε) = Σ max(0, P_v − e^ε·P_v′) for each
// ε of epss.
//
// A report is one of types; the victim with value w sends type t with
// probability victim(w, t), a fake is uniform over the types. A view
// is a count vector c over the types, and
//
//	P_w(c) = Σ_t victim(w, t) · nr!/∏_i (c_i − [i = t])! · types^−nr,
//
// where ∏_i (c_i − [i = t])! is ∏_i c_i! / c_t.
func bruteFakesOnlyDelta(epss []float64, nr, types int, victim func(w, t int) float64) []float64 {
	fact := make([]float64, nr+2)
	fact[0] = 1
	for k := 1; k < len(fact); k++ {
		fact[k] = fact[k-1] * float64(k)
	}
	uniform := math.Pow(float64(types), -float64(nr))
	deltas := make([]float64, len(epss))
	c := make([]int, types)
	var walk func(i, left int)
	walk = func(i, left int) {
		if i < types-1 {
			for k := 0; k <= left; k++ {
				c[i] = k
				walk(i+1, left-k)
			}
			return
		}
		c[i] = left
		prod := 1.0
		for _, ci := range c {
			prod *= fact[ci]
		}
		var pv, pw float64
		for t, ct := range c {
			if ct > 0 {
				coef := fact[nr] * float64(ct) / prod * uniform
				pv += victim(0, t) * coef
				pw += victim(1, t) * coef
			}
		}
		for j, eps := range epss {
			deltas[j] += max(0, pv-math.Exp(eps)*pw)
		}
	}
	walk(0, nr+1)
	return deltas
}

// The reduction and its double sum against the view enumerated whole.
func TestFakesOnlyDeltaMatchesEnumeration(t *testing.T) {
	epss := []float64{0.1, 0.5, 1, 2, 4}
	for _, nr := range []int{1, 2, 4, 6} {
		for _, out := range []int{2, 3} {
			// GRR: a report is a value, and the victim sends its own.
			grr := func(w, t int) float64 {
				if w == t {
					return 1
				}
				return 0
			}
			// SOLH: a report is (seed, bucket), the seed one of the out²
			// hash functions on {v, v′} — the smallest pairwise-
			// independent family — and the victim's bucket its value's
			// hash under a uniform seed.
			solh := func(w, t int) float64 {
				seed, bucket := t/out, t%out
				if [2]int{seed / out, seed % out}[w] == bucket {
					return 1 / float64(out*out)
				}
				return 0
			}
			for _, tc := range []struct {
				name   string
				grr    bool
				types  int
				victim func(w, t int) float64
			}{{"GRR", true, out, grr}, {"SOLH", false, out * out * out, solh}} {
				if tc.types == 27 && nr == 6 {
					continue // 4.3M views; nr = 4 covers d′ = 3
				}
				want := bruteFakesOnlyDelta(epss, nr, tc.types, tc.victim)
				for j, eps := range epss {
					ref := refFakesOnlyDelta(eps, nr, out, tc.grr)
					got := fakesOnlyDelta(eps, nr, out, tc.grr)
					if math.Abs(ref-want[j]) > 1e-12 || math.Abs(got-want[j]) > 1e-12 {
						t.Errorf("%s nr=%d out=%d eps=%v: enumeration %.15g, double sum %.15g, fakesOnlyDelta %.15g",
							tc.name, nr, out, eps, want[j], ref, got)
					}
				}
			}
		}
	}
}

// fakesOnlyDelta adds a bound in place of each row's remainder below
// 1e-30 and adds both marginals' mass beyond 14σ whole; at fake counts
// where it does, it bounds the whole double sum from above, and by no
// more than 1e-25. fakesOnlyChernoff bounds it too, and settles the
// counts at which the closed form has its usual slack.
func TestFakesOnlyDeltaBoundsTheWholeSum(t *testing.T) {
	for _, tc := range []struct {
		nr, out int
		grr     bool
	}{{102, 8, true}, {416, 8, true}, {1200, 64, true}, {626, 47, false}, {1000, 2, false}, {300, 3, true}, {6, 2, true}, {6, 3, false}} {
		for _, eps := range []float64{0.3, 1, 4} {
			ref := refFakesOnlyDelta(eps, tc.nr, tc.out, tc.grr)
			if got := fakesOnlyDelta(eps, tc.nr, tc.out, tc.grr); got < ref*(1-1e-9) || got > ref*(1+1e-9)+1e-25 {
				t.Errorf("nr=%d out=%d grr=%v eps=%v: fakesOnlyDelta %.6g, whole sum %.6g", tc.nr, tc.out, tc.grr, eps, got, ref)
			}
			if got := fakesOnlyChernoff(eps, tc.nr, tc.out, tc.grr); got < ref {
				t.Errorf("nr=%d out=%d grr=%v eps=%v: Chernoff %.6g below the whole sum %.6g", tc.nr, tc.out, tc.grr, eps, got, ref)
			}
		}
	}
	// ROADMAP item 14's Kosarak plan: epsS = 3 at d′ = 362, n_r =
	// 12,060, delta = 1e-9.
	if got := fakesOnlyChernoff(3, 12060, 362, false); got > 1e-9 {
		t.Errorf("Chernoff bound %v at the Kosarak plan, above its delta", got)
	}
}

// The closed-form epsS at n_r = 102 fakes over d = 8 is no bound: the
// planner takes the fakes that make it one.
func TestFakesForEpsS(t *testing.T) {
	L := 14 * math.Log(2/1e-6)
	epsS := math.Sqrt(L * 8 / 102)
	if got, floor := fakesOnlyDelta(epsS, 102, 8, true), math.Pow(7./8, 102); got < floor || got <= 1e-6 {
		t.Fatalf("102 fakes at epsS=%v: delta %v, want above both 1e-6 and P(no fake is v′) = %v", epsS, got, floor)
	}
	nr, err := fakesForEpsS(102, 8, true, L, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	at := func(nr int) float64 { return fakesOnlyDelta(math.Sqrt(L*8/float64(nr)), nr, 8, true) }
	if at(nr) > 1e-6 || at(nr-1) <= 1e-6 {
		t.Fatalf("fakesForEpsS chose %d fakes: delta %v there, %v at one fewer", nr, at(nr), at(nr-1))
	}
	if same, err := fakesForEpsS(416, 8, true, L, 1e-6); err != nil || same != 416 {
		t.Fatalf("a fake count whose epsS holds moved to %d (%v)", same, err)
	}
}

// Every plan the planners produce over a small grid keeps its
// fakes-only view within its delta at the epsS it claims. The grid
// holds cmd/shuffled's drill plan: (4, 8, 8), d = 8, n = 80,
// delta = 1e-6 over 2 epochs.
func TestPlannedEpsSHoldsExactly(t *testing.T) {
	start := time.Now()
	type planned struct {
		name  string
		plan  Plan
		delta float64
	}
	var plans []planned
	for _, eps := range [][3]float64{{4, 8, 8}, {1, 3, 8}, {0.5, 2, 4}, {2, 4, 4}} {
		for _, d := range []int{8, 64, 1024} {
			for _, n := range []int{80, 10000} {
				for _, delta := range []float64{1e-6, 1e-9} {
					rq := Requirements{Eps1: eps[0], Eps2: eps[1], Eps3: eps[2], D: d, N: n, Delta: delta}
					name := fmt.Sprintf("(%v, %v, %v) d=%d n=%d delta=%g", eps[0], eps[1], eps[2], d, n, delta)
					if p, err := PlanPEOS(rq); err == nil {
						plans = append(plans, planned{name, p, delta})
					}
					for _, epochs := range []int{2, 10} {
						if p, per, err := PlanContinual(rq, epochs); err == nil {
							plans = append(plans, planned{fmt.Sprintf("%s over %d epochs", name, epochs), p, per.Delta})
						}
					}
				}
			}
		}
	}
	if len(plans) < 100 {
		t.Fatalf("the grid planned only %d configurations", len(plans))
	}
	planning := time.Since(start)
	worst := 0.0
	for _, p := range plans {
		if got := fakesOnlyDelta(p.plan.Achieved.EpsS, p.plan.NR, p.plan.DPrime, p.plan.UseGRR); got > p.delta {
			t.Errorf("%s: %s has exact delta %.3g at its epsS, above %g", p.name, p.plan, got, p.delta)
		} else {
			worst = max(worst, got/p.delta)
		}
	}
	t.Logf("%d plans in %v (planning %v); the largest exact delta is %.3g of the planned one",
		len(plans), time.Since(start), planning, worst)
}
