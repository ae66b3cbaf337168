// Package composition implements differential-privacy composition
// accounting. §V-B notes that interactive protocols "can utilize
// composition theorems to prove the DP guarantee", and a continual
// deployment (§VI-D) charges one identical (eps0, delta0) guarantee per
// collection. For k identical charges the optimal composition has a
// closed form (Kairouz, Oh and Viswanath, ICML 2015): k adaptive runs
// of an (eps0, delta0)-DP mechanism are (eps, Delta(eps))-DP with
//
//	Delta(eps) = 1 - (1-delta0)^k * (1 - s),
//	s = sum_l C(k,l) * max(0, e^((k-l)eps0) - e^(eps+l*eps0)) / (1+e^eps0)^k,
//
// and no smaller delta holds at that eps for every such mechanism.
// Delta evaluates it and Split inverts it. Unequal charges have no such
// form: computing their exact composition is #P-hard (Murtagh and
// Vadhan, TCC 2016).
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

// tol absorbs floating-point rounding when a composed delta is held to
// a total: charges like ten epochs of total/10 must not fail on the
// last epoch's last ulp.
const tol = 1 + 1e-9

// Delta returns the exact delta at which k adaptive runs of a per-DP
// mechanism are (eps, delta)-DP. It never returns less than the exact
// value: the sum s runs over an O(sqrt(k)) window of the binomial
// terms, and the terms it skips are bounded by Hoeffding's inequality
// and added back.
func Delta(per Guarantee, k int, eps float64) float64 {
	s, _ := loss(per.Eps, k, eps)
	// 1 - (1-delta0)^k * (1-s) without cancelling the small delta a
	// ledger compares against.
	return -math.Expm1(float64(k)*math.Log1p(-per.Delta) + math.Log1p(-s))
}

// loss returns an upper bound on s, the probability mass by which k
// runs of eps0-randomized response exceed e^eps, and how many binomial
// terms it evaluated. With p = 1/(1+e^eps0) the l-th term is
// P[Bin(k, p) = l] * (1 - e^(eps - (k-2l)eps0)), counted where positive,
// for l up to last. The window holds the 2w+1 terms ending at the
// smaller of last and the mode plus w. Each term is at most its binomial
// probability, so a tail outside the window costs at most exp(-2t^2/k),
// t being its distance from the mean.
func loss(eps0 float64, k int, eps float64) (float64, int) {
	if k < 1 || eps0 <= 0 {
		return 0, 0
	}
	kf := float64(k)
	// Terms are positive while (k-2l)eps0 > eps. One l more covers the
	// division's rounding: a term at or past the boundary adds 0.
	top := math.Floor((kf*eps0-eps)/(2*eps0)) + 1
	if top < 0 {
		return 0, 0
	}
	last := int(min(top, kf))
	logP, logQ := -math.Log1p(math.Exp(eps0)), -math.Log1p(math.Exp(-eps0))
	mean := kf / (1 + math.Exp(eps0))
	w := int(7*math.Sqrt(kf)) + 8
	hi := min(last, int(mean)+w)
	lo := max(0, hi-2*w)
	lgK, _ := math.Lgamma(kf + 1)
	s := 0.0
	for l := lo; l <= hi; l++ {
		lgL, _ := math.Lgamma(float64(l) + 1)
		lgR, _ := math.Lgamma(float64(k-l) + 1)
		logTerm := lgK - lgL - lgR + float64(k-l)*logQ + float64(l)*logP
		s += math.Exp(logTerm) * max(0, -math.Expm1(eps-float64(k-2*l)*eps0))
	}
	if lo > 0 {
		t := mean - float64(lo-1)
		s += math.Exp(-2 * t * t / kf)
	}
	if hi < last {
		t := float64(hi+1) - mean
		s += math.Exp(-2 * t * t / kf)
	}
	return min(s, 1), hi - lo + 1
}

// Split returns the largest per-epoch guarantee (eps0, perDelta), with
// eps0 at most total.Eps, whose k-fold composition holds at total: the
// inverse of Delta at eps = total.Eps, found by bisection. When
// total.Eps itself fits — one epoch at perDelta = total.Delta — it is
// returned as is.
func Split(total Guarantee, k int, perDelta float64) (Guarantee, error) {
	if err := validate(total); err != nil {
		return Guarantee{}, err
	}
	if k < 1 {
		return Guarantee{}, errors.New("composition: k must be >= 1")
	}
	if perDelta < 0 || perDelta >= 1 {
		return Guarantee{}, errors.New("composition: per-epoch delta must be in [0, 1)")
	}
	fits := func(eps0 float64) bool {
		return Delta(Guarantee{Eps: eps0, Delta: perDelta}, k, total.Eps) <= total.Delta*tol
	}
	if !fits(0) {
		return Guarantee{}, errors.New("composition: k epochs of the per-epoch delta alone exceed the total delta")
	}
	lo, hi := 0.0, total.Eps
	if fits(hi) {
		return Guarantee{Eps: hi, Delta: perDelta}, nil
	}
	for {
		mid := lo + (hi-lo)/2
		if mid == lo || mid == hi {
			return Guarantee{Eps: lo, Delta: perDelta}, nil
		}
		if fits(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
}
