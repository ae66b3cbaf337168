package hash

import (
	"math"
	"math/bits"
)

// Divisor divides 64-bit words by a fixed m without a hardware
// division: one multiply-high by r = floor((2^64-1)/m) and one
// correcting compare. Build it once per divisor and reuse it; the
// kernels that split a word per report (CountSupport's bucket bounds,
// ldp.WordEncoder's seed split) do.
//
// It is exact for every x in [0, 2^64): r*m lies in (2^64-1-m, 2^64-1],
// so x*r/2^64 lies in (x/m - 1, x/m] and its floor q is either x/m or
// one less. The remainder x - q*m then lies in [0, 2m), and one compare
// against m settles which.
type Divisor struct {
	m, r uint64
}

// NewDivisor returns the divisor by m. It panics if m is 0.
func NewDivisor(m uint64) Divisor {
	if m == 0 {
		panic("hash: division by zero")
	}
	return Divisor{m: m, r: math.MaxUint64 / m}
}

// DivMod returns x / m and x % m.
func (d Divisor) DivMod(x uint64) (q, rem uint64) {
	q, _ = bits.Mul64(x, d.r)
	rem = x - q*d.m
	if rem >= d.m {
		q++
		rem -= d.m
	}
	return q, rem
}
