package hash

import (
	"math"
	"testing"
	"testing/quick"

	"shuffledp/internal/rng"
)

// xxHash64 reference vectors (seed 0 and a nonzero seed), from the
// canonical C implementation.
func TestSum64KnownVectors(t *testing.T) {
	cases := []struct {
		seed uint64
		in   string
		want uint64
	}{
		{0, "", 0xef46db3751d8e999},
		{0, "a", 0xd24ec4f1a98c6e5b},
		{0, "abc", 0x44bc2cf5ad770999},
		{0, "Nobody inspects the spammish repetition", 0xfbcea83c8a378bf1},
		{0, "xxhash", 0x32dd38952c4bc720},
		{20141025, "xxhash", 0xb559b98d844e0635},
	}
	for _, c := range cases {
		if got := sum64(c.seed, []byte(c.in)); got != c.want {
			t.Errorf("sum64(%d, %q) = %#x, want %#x", c.seed, c.in, got, c.want)
		}
	}
}

func TestSum64LongInput(t *testing.T) {
	// Exercise the 32-byte block path; value from the reference impl.
	data := make([]byte, 100)
	for i := range data {
		data[i] = byte(i)
	}
	got := sum64(0, data)
	// Self-consistency: hashing the same bytes twice matches, and a
	// one-byte change flips the result.
	if got != sum64(0, data) {
		t.Fatal("Sum64 not deterministic")
	}
	data[50]++
	if got == sum64(0, data) {
		t.Fatal("Sum64 ignored a byte change")
	}
}

func TestSum64Uint64MatchesBytes(t *testing.T) {
	f := func(seed, v uint64) bool {
		var buf [8]byte
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		return Sum64Uint64(seed, v) == sum64(seed, buf[:])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// CountSupport must agree with the naive per-pair Hash loop for every
// output size, including powers of two and sizes adjacent to them
// (where the per-bucket bounds ceil(y*2^32/d') are and are not exact).
func TestCountSupportMatchesNaive(t *testing.T) {
	r := rng.New(321)
	for _, dPrime := range []int{2, 3, 4, 5, 7, 8, 16, 17, 63, 64, 65, 705, 1024} {
		fam := NewFamily(dPrime)
		const d, reports = 97, 200
		seeds := make([]uint64, reports)
		ys := make([]uint64, reports)
		for i := range seeds {
			seeds[i] = uint64(uint32(r.Uint64())) // 32-bit seeds, as in Report.Seed
			ys[i] = r.Uint64n(uint64(dPrime))
		}
		got := make([]int, d)
		fam.CountSupport(seeds, ys, got)
		want := naiveCounts(fam, seeds, ys, d)
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("d'=%d: counts[%d] = %d, want %d", dPrime, v, got[v], want[v])
			}
		}
	}
}

// Narrow buckets: at d' = 2^20 a bucket is 2^44 wide, and a report
// aimed at the last bucket (upper bound 2^64) or at bucket 0 must not
// be counted through wraparound of the range test.
func TestCountSupportSmallHashGuard(t *testing.T) {
	fam := NewFamily(1 << 20)
	counts := make([]int, 64)
	seeds := []uint64{0, 1, 2, 3}
	ys := []uint64{1 << 19, 1<<20 - 1, 7, 0}
	fam.CountSupport(seeds, ys, counts)
	want := naiveCounts(fam, seeds, ys, 64)
	for v := range want {
		if counts[v] != want[v] {
			t.Fatalf("counts[%d] = %d, want %d", v, counts[v], want[v])
		}
	}
}

func TestFamilyRange(t *testing.T) {
	fam := NewFamily(17)
	for seed := uint64(0); seed < 100; seed++ {
		for v := uint64(0); v < 100; v++ {
			h := fam.Hash(seed, v)
			if h < 0 || h >= 17 {
				t.Fatalf("Hash out of range: %d", h)
			}
		}
	}
}

func TestFamilyPanicsOnTinyRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewFamily(1)
}

// The collision probability over random seeds should be close to 1/d'
// (the defining property of a universal family: Pr[H(v) = H(v')] ~ 1/d';
// TestFamilyPairwiseUniform checks the full joint distribution).
func TestFamilyPairwiseCollisions(t *testing.T) {
	const dPrime = 16
	fam := NewFamily(dPrime)
	r := rng.New(99)
	const trials = 200000
	coll := 0
	for i := 0; i < trials; i++ {
		seed := r.Uint64()
		if fam.Hash(seed, 12345) == fam.Hash(seed, 67890) {
			coll++
		}
	}
	got := float64(coll) / trials
	want := 1.0 / dPrime
	if math.Abs(got-want) > 0.004 {
		t.Errorf("collision rate %v, want ~%v", got, want)
	}
}

// Each bucket should receive ~1/d' of values under a random seed.
func TestFamilyBucketUniformity(t *testing.T) {
	const dPrime = 8
	fam := NewFamily(dPrime)
	counts := make([]int, dPrime)
	const n = 80000
	for v := uint64(0); v < n; v++ {
		counts[fam.Hash(7777, v)]++
	}
	want := float64(n) / dPrime
	for b, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("bucket %d: %d, want ~%.0f", b, c, want)
		}
	}
}

func TestFWHTInvolution(t *testing.T) {
	data := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	orig := append([]float64(nil), data...)
	FWHT(data)
	FWHT(data)
	for i := range data {
		if math.Abs(data[i]/8-orig[i]) > 1e-12 {
			t.Fatalf("FWHT(FWHT(x))/n != x at %d: %v vs %v", i, data[i]/8, orig[i])
		}
	}
}

func TestFWHTMatchesMatrix(t *testing.T) {
	// FWHT(x)[i] must equal sum_j H[i,j] x[j].
	const n = 16
	x := make([]float64, n)
	r := rng.New(5)
	for i := range x {
		x[i] = r.Float64()*2 - 1
	}
	got := append([]float64(nil), x...)
	FWHT(got)
	for i := 0; i < n; i++ {
		want := 0.0
		for j := 0; j < n; j++ {
			want += float64(HadamardEntry(uint64(i), uint64(j))) * x[j]
		}
		if math.Abs(got[i]-want) > 1e-9 {
			t.Fatalf("FWHT[%d] = %v, want %v", i, got[i], want)
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
			FWHT(bad)
		}()
	}
}

func TestHadamardEntryProperties(t *testing.T) {
	// Row 0 and column 0 are all +1; H is symmetric; rows are
	// orthogonal.
	for i := uint64(0); i < 32; i++ {
		if HadamardEntry(0, i) != 1 || HadamardEntry(i, 0) != 1 {
			t.Fatalf("border entry not +1 at %d", i)
		}
		for j := uint64(0); j < 32; j++ {
			if HadamardEntry(i, j) != HadamardEntry(j, i) {
				t.Fatalf("asymmetric at (%d,%d)", i, j)
			}
		}
	}
	const n = 32
	for a := uint64(0); a < n; a++ {
		for b := uint64(0); b < n; b++ {
			dot := 0
			for k := uint64(0); k < n; k++ {
				dot += HadamardEntry(a, k) * HadamardEntry(b, k)
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
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}
