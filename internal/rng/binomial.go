package rng

import "math"

// Binomial returns an exact Binomial(n, p) variate.
//
// Three regimes are used:
//   - degenerate p (0 or 1) and tiny n: direct;
//   - n*min(p,1-p) < binvThreshold: BINV (inversion by multiplication,
//     Kachitvichyanukul & Schmeiser 1988), O(np) expected time;
//   - otherwise: BTPE (Binomial Triangle Parallelogram Exponential), an
//     exact rejection sampler with O(1) expected time.
//
// The experiment harness relies on this to simulate, e.g., the counts a
// server observes from millions of randomized reports without looping
// over every user (see internal/ldp's Simulate* helpers).
func (r *Rand) Binomial(n int, p float64) int {
	switch {
	case n < 0:
		panic("rng: Binomial with n < 0")
	case p <= 0 || n == 0:
		return 0
	case p >= 1:
		return n
	}
	// Exploit symmetry so the worked probability is <= 1/2.
	flipped := false
	q := p
	if q > 0.5 {
		q = 1 - q
		flipped = true
	}
	var k int
	if float64(n)*q < binvThreshold {
		k = r.binv(n, q)
	} else {
		k = r.btpe(n, q)
	}
	if flipped {
		k = n - k
	}
	return k
}

const binvThreshold = 30.0

// binv samples Binomial(n, p) by sequential inversion; requires p <= 1/2
// and works well when n*p is small.
func (r *Rand) binv(n int, p float64) int {
	q := 1 - p
	s := p / q
	a := float64(n+1) * s
	qn := math.Pow(q, float64(n))
	for {
		u := r.Float64()
		x := 0
		f := qn
		for {
			if u < f {
				return x
			}
			if x > 110 { // numerical safety; restart (prob ~0)
				break
			}
			u -= f
			x++
			f *= a/float64(x) - s
		}
	}
}

// btpe implements the BTPE algorithm of Kachitvichyanukul & Schmeiser
// (1988) for Binomial(n, p) with p <= 1/2 and n*p >= binvThreshold.
// Variable names follow the paper to keep the implementation auditable.
func (r *Rand) btpe(n int, p float64) int {
	var (
		nf = float64(n)
		q  = 1 - p
		np = nf * p
	)
	// Step 0: set-up constants.
	ffm := np + p
	m := int(ffm)
	fm := float64(m)
	npq := np * q
	p1 := math.Floor(2.195*math.Sqrt(npq)-4.6*q) + 0.5
	xm := fm + 0.5
	xl := xm - p1
	xr := xm + p1
	c := 0.134 + 20.5/(15.3+fm)
	al := (ffm - xl) / (ffm - xl*p)
	xll := al * (1 + 0.5*al)
	al = (xr - ffm) / (xr * q)
	xlr := al * (1 + 0.5*al)
	p2 := p1 * (1 + c + c)
	p3 := p2 + c/xll
	p4 := p3 + c/xlr

	var y int
	for {
		// Step 1: generate region selector u and variate v.
		u := r.Float64() * p4
		v := r.Float64()
		if u <= p1 {
			// Triangular region.
			y = int(xm - p1*v + u)
			return y
		}
		if u <= p2 {
			// Parallelogram region.
			x := xl + (u-p1)/c
			v = v*c + 1 - math.Abs(xm-x)/p1
			if v > 1 || v <= 0 {
				continue
			}
			y = int(x)
		} else if u > p3 {
			// Right exponential tail.
			y = int(xr - math.Log(v)/xlr)
			if y > n {
				continue
			}
			v = v * (u - p3) * xlr
		} else {
			// Left exponential tail.
			y = int(xl + math.Log(v)/xll)
			if y < 0 {
				continue
			}
			v = v * (u - p2) * xll
		}

		// Step 5: acceptance/rejection.
		k := y - m
		if k < 0 {
			k = -k
		}
		kf := float64(k)
		if kf <= 20 || kf >= npq/2-1 {
			// Explicit evaluation of f(y)/f(m) by recursion.
			s := p / q
			a := s * (nf + 1)
			f := 1.0
			switch {
			case m < y:
				for i := m + 1; i <= y; i++ {
					f *= a/float64(i) - s
				}
			case m > y:
				for i := y + 1; i <= m; i++ {
					f /= a/float64(i) - s
				}
			}
			if v <= f {
				return y
			}
			continue
		}
		// Squeeze using upper and lower bounds on log f(y).
		yf := float64(y)
		amaxp := kf / npq * ((kf*(kf/3+0.625)+0.1666666666666)/npq + 0.5)
		ynorm := -kf * kf / (2 * npq)
		alv := math.Log(v)
		if alv < ynorm-amaxp {
			return y
		}
		if alv > ynorm+amaxp {
			continue
		}
		// Final comparison via Stirling-based log f(y).
		x1 := yf + 1
		f1 := fm + 1
		z := nf + 1 - fm
		w := nf - yf + 1
		z2 := z * z
		x2 := x1 * x1
		f2 := f1 * f1
		w2 := w * w
		t := xm*math.Log(f1/x1) + (nf-fm+0.5)*math.Log(z/w) +
			(yf-fm)*math.Log(w*p/(x1*q)) +
			(13860.0-(462.0-(132.0-(99.0-140.0/f2)/f2)/f2)/f2)/f1/166320.0 +
			(13860.0-(462.0-(132.0-(99.0-140.0/z2)/z2)/z2)/z2)/z/166320.0 +
			(13860.0-(462.0-(132.0-(99.0-140.0/x2)/x2)/x2)/x2)/x1/166320.0 +
			(13860.0-(462.0-(132.0-(99.0-140.0/w2)/w2)/w2)/w2)/w/166320.0
		if alv <= t {
			return y
		}
	}
}
