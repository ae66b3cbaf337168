// Package composition implements differential-privacy composition
// accounting. §V-B notes that interactive protocols "can utilize
// composition theorems to prove the DP guarantee"; TreeHist (§VII-C) is
// exactly such a protocol — six adaptive rounds against the same
// users — and this package provides the calculators:
//
//   - Basic composition: k mechanisms of (eps_i, delta_i)-DP compose to
//     (sum eps_i, sum delta_i)-DP (budget.Naive charges it; SplitBasic
//     inverts it).
//   - Advanced composition (Dwork–Rothblum–Vadhan): k mechanisms of
//     (eps, delta)-DP compose to
//     (eps*sqrt(2k ln(1/delta')) + k*eps*(e^eps - 1), k*delta + delta')-DP
//     for any slack delta' > 0.
//   - The inverse problems: the largest per-round budget whose k-fold
//     composition stays within a total budget.
package composition

import (
	"errors"
	"math"
)

// Guarantee is an (epsilon, delta)-DP guarantee.
type Guarantee struct {
	Eps   float64
	Delta float64
}

func validate(g Guarantee) error {
	if g.Eps < 0 || g.Delta < 0 || g.Delta >= 1 {
		return errors.New("composition: need eps >= 0 and delta in [0, 1)")
	}
	return nil
}

// Advanced returns the advanced-composition guarantee of k runs of an
// (eps, delta)-DP mechanism with slack deltaPrime.
func Advanced(g Guarantee, k int, deltaPrime float64) (Guarantee, error) {
	if err := validate(g); err != nil {
		return Guarantee{}, err
	}
	if k < 1 {
		return Guarantee{}, errors.New("composition: k must be >= 1")
	}
	if deltaPrime <= 0 || deltaPrime >= 1 {
		return Guarantee{}, errors.New("composition: deltaPrime must be in (0, 1)")
	}
	kf := float64(k)
	eps := g.Eps*math.Sqrt(2*kf*math.Log(1/deltaPrime)) +
		kf*g.Eps*(math.Exp(g.Eps)-1)
	return Guarantee{Eps: eps, Delta: kf*g.Delta + deltaPrime}, nil
}

// SplitBasic returns the per-round guarantee under basic composition:
// total split evenly across k rounds. This is the split the paper uses
// for the shuffle-model TreeHist ("dividing epsC and deltaC by 6 for
// each round").
func SplitBasic(total Guarantee, k int) (Guarantee, error) {
	if err := validate(total); err != nil {
		return Guarantee{}, err
	}
	if k < 1 {
		return Guarantee{}, errors.New("composition: k must be >= 1")
	}
	return Guarantee{Eps: total.Eps / float64(k), Delta: total.Delta / float64(k)}, nil
}

// SplitAdvanced returns the largest per-round (eps, delta) such that k
// advanced-composed rounds stay within the total, reserving half the
// total delta as slack. Found by bisection on the per-round eps. For
// small k or large eps, basic composition can allow a bigger per-round
// budget; MaxSplit picks the better of the two.
func SplitAdvanced(total Guarantee, k int) (Guarantee, error) {
	if err := validate(total); err != nil {
		return Guarantee{}, err
	}
	if k < 1 {
		return Guarantee{}, errors.New("composition: k must be >= 1")
	}
	if total.Delta <= 0 {
		return Guarantee{}, errors.New("composition: advanced composition needs delta > 0")
	}
	slack := total.Delta / 2
	perDelta := total.Delta / 2 / float64(k)
	lo, hi := 0.0, total.Eps // per-round eps cannot exceed the total
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		g, err := Advanced(Guarantee{Eps: mid, Delta: perDelta}, k, slack)
		if err != nil {
			return Guarantee{}, err
		}
		if g.Eps <= total.Eps {
			lo = mid
		} else {
			hi = mid
		}
	}
	return Guarantee{Eps: lo, Delta: perDelta}, nil
}

// MaxSplit returns the larger per-round budget of SplitBasic and
// SplitAdvanced — what an adaptive protocol like TreeHist should
// actually spend per round.
func MaxSplit(total Guarantee, k int) (Guarantee, error) {
	basic, err := SplitBasic(total, k)
	if err != nil {
		return Guarantee{}, err
	}
	if total.Delta == 0 {
		return basic, nil
	}
	adv, err := SplitAdvanced(total, k)
	if err != nil {
		return Guarantee{}, err
	}
	if adv.Eps > basic.Eps {
		return adv, nil
	}
	return basic, nil
}
