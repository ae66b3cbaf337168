package ldp

import "math"

// UnaryEncoding is the symmetric unary-encoding (basic RAPPOR) family of
// §IV-B1, a Figure 3 baseline. The value v becomes a length-d bit vector
// B with B[v] = 1, and every bit is flipped independently with
// probability flip.
//
// Two instantiations appear in the paper:
//
//   - RAP: flip = 1/(e^{eps/2} + 1), satisfying eps-LDP under the
//     replacement definition (two values differ in two bit positions, so
//     the budget is halved per bit). Use NewRAP.
//   - RAP_R (Erlingsson et al. 2020): flip = 1/(e^eps + 1), satisfying
//     eps-removal-LDP, which equals 2*eps replacement LDP (§IV-B4). It
//     is RAP at twice the budget, bit for bit: use NewRAP(2*eps).
type UnaryEncoding struct {
	eps  float64 // replacement-LDP budget
	flip float64 // per-bit flip probability
}

// NewRAP returns the symmetric unary-encoding mechanism satisfying
// eps-LDP (replacement).
func NewRAP(eps float64) *UnaryEncoding {
	validateEpsilon(eps)
	return &UnaryEncoding{eps: eps, flip: 1 / (math.Exp(eps/2) + 1)}
}

// EpsilonLocal implements Mechanism.
func (u *UnaryEncoding) EpsilonLocal() float64 { return u.eps }

// Variance implements Mechanism. With p = 1-flip and q = flip the
// calibrated estimator has Var = q(1-q)/(n (p-q)^2), which for RAP
// reduces to e^{eps/2} / (n (e^{eps/2}-1)^2), the expression used in
// Proposition 5.
func (u *UnaryEncoding) Variance(n int) float64 {
	p, q := 1-u.flip, u.flip
	return q * (1 - q) / (float64(n) * (p - q) * (p - q))
}
