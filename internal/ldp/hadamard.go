package ldp

import "math"

// Hadamard is the Hadamard response mechanism ("Had" in §VII-B,
// Acharya et al. 2019), a Figure 3 baseline. It behaves like local
// hashing with d' = 2: each user samples a random row a of the D x D
// Hadamard matrix (D the next power of two > d), computes the sign bit
// H[a, v+1], and reports it through binary randomized response; the
// server aggregates every report with one fast Walsh–Hadamard
// transform. The experiment harness simulates it through its Support
// (accumulator.go), so only the parameters the simulator reads live
// here.
type Hadamard struct {
	eps float64
	p   float64 // probability of reporting the true bit
}

// NewHadamard returns a Hadamard response mechanism with local budget
// eps.
func NewHadamard(eps float64) *Hadamard {
	validateEpsilon(eps)
	e := math.Exp(eps)
	return &Hadamard{eps: eps, p: e / (e + 1)}
}

// EpsilonLocal implements Mechanism.
func (h *Hadamard) EpsilonLocal() float64 { return h.eps }

// Variance implements Mechanism. Hadamard response is local hashing
// with d' = 2, so Equation (4) gives
// Var = (e^eps + 1)^2 / (n (e^eps - 1)^2).
func (h *Hadamard) Variance(n int) float64 {
	e := math.Exp(h.eps)
	return (e + 1) * (e + 1) / (float64(n) * (e - 1) * (e - 1))
}
