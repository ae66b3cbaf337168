package rng

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
	c := New(43)
	same := 0
	a = New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 equal outputs", same)
	}
}

func TestZeroSeedUsable(t *testing.T) {
	r := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 10; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 9 {
		t.Fatalf("seed 0 produced repetitive output: %d distinct of 10", len(seen))
	}
}

func TestUint64nRange(t *testing.T) {
	r := New(1)
	for _, n := range []uint64{1, 2, 3, 7, 10, 1 << 20, 915, 42178} {
		for i := 0; i < 200; i++ {
			if v := r.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestUint64nUniform(t *testing.T) {
	r := New(2)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Uint64n(n)]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: got %d, want ~%.0f", i, c, want)
		}
	}
}

func TestUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n == 0")
		}
	}()
	New(1).Uint64n(0)
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n <= 0")
		}
	}()
	New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestBernoulliEdges(t *testing.T) {
	r := New(4)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
		if r.Bernoulli(-0.5) {
			t.Fatal("Bernoulli(-0.5) returned true")
		}
		if !r.Bernoulli(1.5) {
			t.Fatal("Bernoulli(1.5) returned false")
		}
	}
}

func TestBernoulliMean(t *testing.T) {
	r := New(5)
	const trials = 200000
	for _, p := range []float64{0.1, 0.5, 0.9} {
		hits := 0
		for i := 0; i < trials; i++ {
			if r.Bernoulli(p) {
				hits++
			}
		}
		got := float64(hits) / trials
		if math.Abs(got-p) > 0.01 {
			t.Errorf("Bernoulli(%v) mean = %v", p, got)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(6)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestPermUniformFirstElement(t *testing.T) {
	r := New(7)
	const n, trials = 5, 50000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Perm(n)[0]]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("Perm first element %d: got %d want ~%.0f", i, c, want)
		}
	}
}

func TestShuffleMultisetPreserved(t *testing.T) {
	r := New(8)
	xs := []int{1, 2, 2, 3, 5, 8, 13}
	sum := 0
	for _, x := range xs {
		sum += x
	}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	got := 0
	for _, x := range xs {
		got += x
	}
	if got != sum {
		t.Fatalf("shuffle changed contents: sum %d -> %d", sum, got)
	}
}

func TestLaplaceMoments(t *testing.T) {
	r := New(9)
	const trials = 400000
	scale := 2.0
	var sum, sumSq float64
	for i := 0; i < trials; i++ {
		x := r.Laplace(scale)
		sum += x
		sumSq += x * x
	}
	mean := sum / trials
	variance := sumSq/trials - mean*mean
	if math.Abs(mean) > 0.03 {
		t.Errorf("Laplace mean = %v, want ~0", mean)
	}
	want := 2 * scale * scale
	if math.Abs(variance-want)/want > 0.05 {
		t.Errorf("Laplace variance = %v, want ~%v", variance, want)
	}
}

// Property: Uint64n(n) < n for all n > 0.
func TestQuickUint64nInRange(t *testing.T) {
	r := New(13)
	f := func(n uint64) bool {
		if n == 0 {
			n = 1
		}
		return r.Uint64n(n) < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// mul64 returns the 128-bit product of x and y as (hi, lo): the
// hand-rolled multiplier the reference Uint64n below was written with.
func mul64(x, y uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	x0, x1 := x&mask32, x>>32
	y0, y1 := y&mask32, y>>32
	w0 := x0 * y0
	t := x1*y0 + w0>>32
	w1 := t & mask32
	w2 := t >> 32
	w1 += x0 * y1
	hi = x1*y1 + w2 + w1>>32
	lo = x * y
	return
}

// Property: the reference's mul64 matches big-integer multiplication on
// the low 64 bits and produces consistent hi words via the identity
// (x*y) >> 64 == hi and (x*y) & mask == lo.
func TestQuickMul64(t *testing.T) {
	f := func(x, y uint64) bool {
		hi, lo := mul64(x, y)
		if lo != x*y {
			return false
		}
		// Verify hi via 32-bit decomposition done independently.
		x0, x1 := x&0xffffffff, x>>32
		y0, y1 := y&0xffffffff, y>>32
		carry := ((x0*y0)>>32 + (x1*y0)&0xffffffff + (x0*y1)&0xffffffff) >> 32
		wantHi := x1*y1 + (x1*y0)>>32 + (x0*y1)>>32 + carry
		return hi == wantHi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// refUint64n is Uint64n as it was before the nearly-divisionless form:
// the threshold division on every call, then the rejection loop.
func refUint64n(r *Rand, n uint64) uint64 {
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	threshold := (-n) % n
	for {
		hi, lo := mul64(r.Uint64(), n)
		if lo >= threshold {
			return hi
		}
	}
}

func refIntn(r *Rand, n int) int { return int(refUint64n(r, uint64(n))) }

// TestUint64nMatchesReference pins Uint64n to the reference: the same
// outputs from the same stream, and the same stream left behind, so
// every consumer (batch shuffles, GRR draws, EOS permutations) sees
// exactly the draws it saw before.
func TestUint64nMatchesReference(t *testing.T) {
	for _, n := range []uint64{1, 2, 3, 15, 511, 111 << 32, 1<<63 + 1, math.MaxUint64} {
		got, want := New(n), New(n)
		for i := 0; i < 20000; i++ {
			if g, w := got.Uint64n(n), refUint64n(want, n); g != w {
				t.Fatalf("n=%d draw %d: Uint64n = %d, reference %d", n, i, g, w)
			}
		}
		if got.s != want.s {
			t.Fatalf("n=%d: Uint64n consumed the stream differently from the reference", n)
		}
	}

	got, want := New(77), New(77)
	for i := 0; i < 20000; i++ {
		n := 1 + i%1000
		if g, w := got.Intn(n), refIntn(want, n); g != w {
			t.Fatalf("Intn(%d) draw %d: %d, reference %d", n, i, g, w)
		}
	}
	for n := 0; n < 300; n++ {
		p, q := got.Perm(n), make([]int, n)
		for i := 1; i < n; i++ { // the reference Perm, on refIntn
			j := refIntn(want, i+1)
			q[i] = q[j]
			q[j] = i
		}
		if !slices.Equal(p, q) {
			t.Fatalf("Perm(%d) = %v, reference %v", n, p, q)
		}
		a, b := slices.Clone(p), slices.Clone(p)
		got.Shuffle(n, func(i, j int) { a[i], a[j] = a[j], a[i] })
		for i := n - 1; i > 0; i-- { // the reference Shuffle
			j := refIntn(want, i+1)
			b[i], b[j] = b[j], b[i]
		}
		if !slices.Equal(a, b) {
			t.Fatalf("Shuffle(%d) = %v, reference %v", n, a, b)
		}
	}
	if got.s != want.s {
		t.Fatal("Intn, Perm and Shuffle consumed the stream differently from the reference")
	}
}

// Substream is a pure function of (seed, stream): the same pair always
// yields the same stream, and nearby pairs are decorrelated.
func TestSubstreamDeterministicAndDistinct(t *testing.T) {
	a := Substream(7, 3)
	b := Substream(7, 3)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Substream not deterministic")
		}
	}
	// Distinct streams of one seed, and the same stream of distinct
	// seeds, must diverge immediately-ish.
	pairs := [][2]*Rand{
		{Substream(7, 3), Substream(7, 4)},
		{Substream(7, 3), Substream(8, 3)},
		{Substream(7, 0), Substream(0, 7)},
	}
	for i, p := range pairs {
		same := 0
		for j := 0; j < 64; j++ {
			if p[0].Uint64() == p[1].Uint64() {
				same++
			}
		}
		if same > 0 {
			t.Fatalf("pair %d: %d/64 outputs collide", i, same)
		}
	}
}

// Sequential consumption from one substream must not perturb another —
// the property the sharded randomization engine relies on.
func TestSubstreamIndependence(t *testing.T) {
	first := Substream(1, 0)
	want := make([]uint64, 16)
	for i := range want {
		want[i] = first.Uint64()
	}
	// Interleave with heavy use of a sibling stream.
	sib := Substream(1, 1)
	again := Substream(1, 0)
	for i := range want {
		for j := 0; j < 10; j++ {
			sib.Uint64()
		}
		if got := again.Uint64(); got != want[i] {
			t.Fatalf("output %d perturbed", i)
		}
	}
}
