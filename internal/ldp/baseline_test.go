package ldp

import (
	"math"
	"testing"

	"shuffledp/internal/rng"
)

// Reference randomizers of the Figure 3 baselines. The program only
// simulates Hadamard response, RAP/RAP_R and AUE (SimulateEstimates);
// these run the real mechanisms — every user's randomized report, then
// the server's estimator — so the tests can hold the simulators and the
// analytic variances to them. Each is one function from true values to
// estimates over [0, d).

// hadamardEstimate randomizes values under Hadamard response and
// estimates their frequencies. User i samples a row a_i of the D x D
// Hadamard matrix (D the next power of two > d) and reports the sign
// H[a_i, v_i+1] through binary randomized response; the server sums the
// signs per row and reads every column's statistic
// S_c = sum_i y_i H[a_i, c] off one FWHT of the row sums. Because
// E[y_i H[a_i, c]] = (2p-1) 1{c = v_i+1}, f~_v = S_{v+1} / (n (2p-1)).
func hadamardEstimate(h *Hadamard, d int, values []int, r *rng.Rand) []float64 {
	order := nextPow2(d + 1)
	rowSums := make([]float64, order)
	for _, v := range values {
		row := r.Uint64n(uint64(order))
		sign := hadamardEntry(row, uint64(v+1))
		if !r.Bernoulli(h.p) {
			sign = -sign
		}
		rowSums[row] += float64(sign)
	}
	fwht(rowSums)
	est := make([]float64, d)
	scale := 1 / (float64(len(values)) * (2*h.p - 1))
	for v := range est {
		est[v] = rowSums[v+1] * scale
	}
	return est
}

// rapEstimate randomizes values under symmetric unary encoding — the
// one-hot vector of v with every bit flipped with probability flip —
// and calibrates the per-location counts of set bits with u's Support.
func rapEstimate(u *UnaryEncoding, d int, values []int, r *rng.Rand) []float64 {
	counts := make([]int, d)
	for _, v := range values {
		for j := range counts {
			if (j == v) != r.Bernoulli(u.flip) {
				counts[j]++
			}
		}
	}
	s, _ := SupportOf(u)
	return s.Calibrate(counts, len(values), 0)
}

// aueEstimate randomizes values under the Balcer–Cheu mechanism — the
// exact one-hot vector plus rounds Bernoulli(prob) blanket increments
// per location — and estimates f~_v = C_v/n - gamma.
func aueEstimate(a *AUE, d int, values []int, r *rng.Rand) []float64 {
	counts := make([]int, d)
	for _, v := range values {
		counts[v]++
		for j := range counts {
			for range a.rounds {
				if r.Bernoulli(a.prob) {
					counts[j]++
				}
			}
		}
	}
	est := make([]float64, d)
	for v, c := range counts {
		est[v] = float64(c)/float64(len(values)) - a.gamma
	}
	return est
}

// fwht performs an in-place fast Walsh–Hadamard transform of data,
// whose length must be a power of two. Applying it twice multiplies
// each entry by len(data) (the transform is an involution up to scale).
func fwht(data []float64) {
	n := len(data)
	if n == 0 || n&(n-1) != 0 {
		panic("fwht: length must be a nonzero power of two")
	}
	for h := 1; h < n; h <<= 1 {
		for i := 0; i < n; i += h << 1 {
			for j := i; j < i+h; j++ {
				x, y := data[j], data[j+h]
				data[j], data[j+h] = x+y, x-y
			}
		}
	}
}

// hadamardEntry returns H[row, col] of the (unnormalized) 2^k x 2^k
// Hadamard matrix: +1 if popcount(row AND col) is even, else -1.
func hadamardEntry(row, col uint64) int {
	x := row & col
	// Parity of the popcount via bit folding.
	x ^= x >> 32
	x ^= x >> 16
	x ^= x >> 8
	x ^= x >> 4
	x ^= x >> 2
	x ^= x >> 1
	if x&1 == 0 {
		return 1
	}
	return -1
}

// nextPow2 returns the smallest power of two >= v (and >= 1).
func nextPow2(v int) int {
	n := 1
	for n < v {
		n <<= 1
	}
	return n
}

func TestFWHTInvolution(t *testing.T) {
	data := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	orig := append([]float64(nil), data...)
	fwht(data)
	fwht(data)
	for i := range data {
		if math.Abs(data[i]/8-orig[i]) > 1e-12 {
			t.Fatalf("fwht(fwht(x))/n != x at %d: %v vs %v", i, data[i]/8, orig[i])
		}
	}
}

func TestFWHTMatchesMatrix(t *testing.T) {
	// fwht(x)[i] must equal sum_j H[i,j] x[j].
	const n = 16
	x := make([]float64, n)
	r := rng.New(5)
	for i := range x {
		x[i] = r.Float64()*2 - 1
	}
	got := append([]float64(nil), x...)
	fwht(got)
	for i := 0; i < n; i++ {
		want := 0.0
		for j := 0; j < n; j++ {
			want += float64(hadamardEntry(uint64(i), uint64(j))) * x[j]
		}
		if math.Abs(got[i]-want) > 1e-9 {
			t.Fatalf("fwht[%d] = %v, want %v", i, got[i], want)
		}
	}
}

func TestFWHTPanics(t *testing.T) {
	for _, bad := range [][]float64{{}, {1, 2, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for len %d", len(bad))
				}
			}()
			fwht(bad)
		}()
	}
}

func TestHadamardEntryProperties(t *testing.T) {
	// Row 0 and column 0 are all +1; H is symmetric; rows are
	// orthogonal.
	for i := uint64(0); i < 32; i++ {
		if hadamardEntry(0, i) != 1 || hadamardEntry(i, 0) != 1 {
			t.Fatalf("border entry not +1 at %d", i)
		}
		for j := uint64(0); j < 32; j++ {
			if hadamardEntry(i, j) != hadamardEntry(j, i) {
				t.Fatalf("asymmetric at (%d,%d)", i, j)
			}
		}
	}
	const n = 32
	for a := uint64(0); a < n; a++ {
		for b := uint64(0); b < n; b++ {
			dot := 0
			for k := uint64(0); k < n; k++ {
				dot += hadamardEntry(a, k) * hadamardEntry(b, k)
			}
			want := 0
			if a == b {
				want = n
			}
			if dot != want {
				t.Fatalf("rows %d,%d dot = %d, want %d", a, b, dot, want)
			}
		}
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{-3: 1, 0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 915: 1024, 42178: 65536}
	for in, want := range cases {
		if got := nextPow2(in); got != want {
			t.Errorf("nextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}
