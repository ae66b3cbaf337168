package amplify

import (
	"errors"
	"math"
)

// The fakes-only view (§V-A's Adv_u): the server plus every other user
// subtract every report but the victim's, which leaves the victim's
// report among the n_r uniform fakes, shuffled. Corollaries 8 and 9
// bound it with a Chernoff constant, epsS = sqrt(14 ln(2/δ)·d′/n_r).
// The view is small enough to price exactly, and near epsS = 4 the
// constant is not a bound: at d = 8, n_r = 102 fakes claim epsS = 3.99
// at δ = 10⁻⁶, but with probability (7/8)^102 = 1.2·10⁻⁶ no fake
// carries v′, a view v′ cannot produce.
//
// Under value v the view's likelihood is proportional to the number of
// its reports consistent with v. With X and Y the fakes consistent with
// v and with v′, and C whether the victim's own report is also
// consistent with v′,
//
//	δ(ε) = E[max(0, 1 − e^ε·(C + Y)/(1 + X))].
//
// For GRR (X, Y) ~ Multinomial(n_r; 1/d, 1/d) and C = 0. For SOLH under
// a pairwise-independent hash (DESIGN §5) X and Y are independent
// Bin(n_r, 1/d′) and C ~ Bern(1/d′). The victim's report is taken as its
// raw value: only the fakes protect it, whatever ε_l is.

// negligible is the mass below which fakesOnlyDelta adds a bound on
// the rest of a row or a tail instead of summing it.
const negligible = 1e-30

// fakesOnlyDelta returns an upper bound on δ(ε) of the fakes-only view
// with nr fakes over an output space of outputSpace values (d for GRR,
// d′ for SOLH), exact up to sums below negligible: the double sum over
// ±14σ of each count, each row walked down from its top term's
// logarithm, plus both marginals' mass outside that window.
func fakesOnlyDelta(eps float64, nr, outputSpace int, grr bool) float64 {
	p := 1 / float64(outputSpace)
	lf := func(k int) float64 { l, _ := math.Lgamma(float64(k + 1)); return l } // ln k!
	lfNR := lf(nr)
	logP, log1mP := math.Log(p), math.Log1p(-p)
	logBin := func(k int) float64 {
		return lfNR - lf(k) - lf(nr-k) + float64(k)*logP + float64(nr-k)*log1mP
	}
	mean := float64(nr) * p
	sigma := math.Sqrt(mean * (1 - p))
	lo := max(0, int(math.Floor(mean-14*sigma)))
	hi := min(nr, int(math.Ceil(mean+14*sigma)))

	// The pmf falls away from the window on both sides, so once a term
	// times the terms left is negligible, that product bounds the rest.
	var tails float64
	for _, side := range [][2]int{{lo - 1, -1}, {hi + 1, 1}} {
		for k := side[0]; k >= 0 && k <= nr; k += side[1] {
			t := math.Exp(logBin(k))
			if rest := t * float64(nr+1); rest < negligible {
				tails += rest
				break
			}
			tails += t
		}
	}

	// logPair is ln P(X = x, Y = y); ratio is P(x, y-1)/P(x, y), with
	// which a row of the sum is walked down from its top.
	logPair := func(x, y int) float64 { return logBin(x) + logBin(y) }
	ratio := func(x, y int) float64 { return float64(y) / float64(nr-y+1) * (1 - p) / p }
	mode := func(x int) float64 { return float64(nr+1) * p } // of Y given X = x
	pC := p
	if grr {
		logPair = func(x, y int) float64 {
			l := lfNR - lf(x) - lf(y) + float64(x+y)*logP
			if r := nr - x - y; r > 0 {
				l += float64(r)*math.Log1p(-2*p) - lf(r) // -Inf at d = 2: then every fake is v or v′
			}
			return l
		}
		ratio = func(x, y int) float64 { return float64(y) / float64(nr-x-y+1) * (1 - 2*p) / p }
		mode = func(x int) float64 { return float64(nr-x+1) * p / (1 - p) }
		pC = 0
	}
	e := math.Exp(eps)
	gap := func(c, x, y int) float64 { return max(0, 1-e*float64(c+y)/float64(1+x)) }
	var delta float64
	for x := lo; x <= hi; x++ {
		// Only y < (1+x)/e^ε leaves a gap, and a gap is at most 1.
		top := min(hi, int(math.Ceil(float64(1+x)/e))-1)
		if grr {
			top = min(top, nr-x)
		}
		if top < lo {
			continue
		}
		t := math.Exp(logPair(x, top))
		for y := top; y >= lo; y-- {
			// Below its mode the row's pmf falls with y, so once a term
			// times the terms left is negligible, that product bounds
			// the rest of the row.
			if rest := t * float64(y-lo+1); float64(y) < mode(x)-1 && rest < negligible {
				delta += rest
				break
			}
			delta += t * ((1-pC)*gap(0, x, y) + pC*gap(1, x, y))
			t *= ratio(x, y)
		}
	}
	return delta + 2*tails
}

// fakesOnlyChernoff returns a Chernoff bound on the same δ(ε) in O(1):
// a gap needs Y − cX < c with c = e^−ε, whatever C is, so for every
// λ > 0
//
//	δ(ε) ≤ P(Y − cX < c) ≤ e^(λc) · E[e^(λcX − λY)],
//
// where the expectation is (p·e^(λc) + p·e^(−λ) + 1 − 2p)^n_r for GRR
// and (1 − p + p·e^(λc))^n_r · (1 − p + p·e^(−λ))^n_r for SOLH. The
// exponent is convex in λ; a golden-section search finds its minimum.
func fakesOnlyChernoff(eps float64, nr, outputSpace int, grr bool) float64 {
	p, c, n := 1/float64(outputSpace), math.Exp(-eps), float64(nr)
	exponent := func(l float64) float64 {
		if grr {
			return l*c + n*math.Log(p*math.Exp(l*c)+p*math.Exp(-l)+1-2*p)
		}
		return l*c + n*(math.Log1p(p*math.Expm1(l*c))+math.Log1p(p*math.Expm1(-l)))
	}
	lo, hi := 0.0, 50.0
	const phi = 0.6180339887498949
	for range 60 {
		a, b := hi-phi*(hi-lo), lo+phi*(hi-lo)
		if exponent(a) < exponent(b) {
			hi = b
		} else {
			lo = a
		}
	}
	return math.Exp(exponent((lo + hi) / 2))
}

// fakesForEpsS returns the least fake count n_r >= nr whose
// closed-form epsS, sqrt(L·outputSpace/n_r) with L = 14 ln(2/δ), the
// exact fakes-only view holds at δ. Where the constant is a bound that
// is nr itself. The Chernoff bound settles most counts without the
// exact sum.
func fakesForEpsS(nr, outputSpace int, grr bool, L, delta float64) (int, error) {
	holds := func(nr int) bool {
		epsS := math.Sqrt(L * float64(outputSpace) / float64(nr))
		return fakesOnlyChernoff(epsS, nr, outputSpace, grr) <= delta ||
			fakesOnlyDelta(epsS, nr, outputSpace, grr) <= delta
	}
	if holds(nr) {
		return nr, nil
	}
	// fail does not hold; ok does. More fakes shrink epsS towards where
	// the constant is a bound, so double, then bisect.
	fail, ok := nr, 2*nr
	for !holds(ok) {
		if ok > 1<<30 {
			return 0, errors.New("amplify: no fake count backs the closed-form epsS")
		}
		fail, ok = ok, 2*ok
	}
	for ok-fail > 1 {
		if mid := fail + (ok-fail)/2; holds(mid) {
			ok = mid
		} else {
			fail = mid
		}
	}
	return ok, nil
}
