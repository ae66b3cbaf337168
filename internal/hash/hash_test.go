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

// CountSupport must agree with the naive per-pair Hash loop on each
// kernel of the register path, for every output size, including powers
// of two and sizes adjacent to them (where the per-bucket bounds
// ceil(y*2^32/d') are and are not exact), and for domains that end at
// every remainder of the portable loop's three-key group, of the
// AVX-512 kernel's eight-key group and on and off the sweep's 1,024-key
// block. Below sweepMinOutputSize every d' runs every chunk length from
// 1 to 129: each remainder of the AVX-512 kernel's eight-lane group, and
// a second chunk of one report.
func TestCountSupportMatchesNaive(t *testing.T) {
	check := func(t *testing.T, r *rng.Rand, d, dPrime, reports int) {
		t.Helper()
		fam := NewFamily(dPrime)
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
				t.Fatalf("d=%d d'=%d n=%d: counts[%d] = %d, want %d", d, dPrime, reports, v, got[v], want[v])
			}
		}
	}
	forKernels(t, func(t *testing.T) {
		r := rng.New(321)
		for _, d := range []int{1, 2, 3, 4, 5, 64, 97, 1024, 1025} {
			for _, dPrime := range []int{2, 3, 4, 5, 7, 8, 16, 17, 63, 64, 65, 705, 1024} {
				check(t, r, d, dPrime, 200)
			}
		}
		for dPrime := 2; dPrime < sweepMinOutputSize; dPrime++ {
			for reports := 1; reports <= supportChunk+1; reports++ {
				check(t, r, 1+reports%24, dPrime, reports)
			}
		}
	})
}

// The register path's kernels count a lane at key k iff a*k + c <= w
// mod 2^64, and the edges of that test are too thin (one value of h in
// 2^64) for seeded reports to reach. Lanes built to land on them do:
// h = w (a hit), h = w + 1 (a miss), w = 2^64 - 1 (a hit at every key)
// and w = 0 (a hit only where h = 0), each aimed at one candidate of a
// domain that ends off the eight-key group. An empty chunk counts
// nothing on either kernel.
func TestRegisterKernelsAtBucketEdges(t *testing.T) {
	r := rng.New(99)
	const d = 43
	lanes := make([]lane, supportChunk)
	for i := range lanes {
		a, w := r.Uint64(), r.Uint64()
		hk := a * scramble(uint32(r.Uint64n(d)))
		switch i % 4 {
		case 0:
			lanes[i] = lane{a: a, c: w - hk, w: w}
		case 1:
			lanes[i] = lane{a: a, c: w + 1 - hk, w: w}
		case 2:
			lanes[i] = lane{a: a, c: r.Uint64(), w: math.MaxUint64}
		case 3:
			lanes[i] = lane{a: a, c: -hk, w: 0}
		}
	}
	forKernels(t, func(t *testing.T) {
		for _, n := range []int{0, 1, 7, 8, 9, supportChunk} {
			got, want := make([]int, d), make([]int, d)
			countCandidates(lanes[:n], got)
			for v := range want {
				k := scramble(uint32(v))
				for _, l := range lanes[:n] {
					if l.a*k+l.c <= l.w {
						want[v]++
					}
				}
			}
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("%d lanes: counts[%d] = %d, want %d", n, v, got[v], want[v])
				}
			}
		}
	})
}

// Divisor must give exactly what the hardware division gives: at the
// bucket and report-group divisors the kernels use (d' from 2 to 2^31),
// at the edges of a quotient step, at the top of the word, and on a
// million seeded words under every divisor.
func TestDivisorMatchesDivision(t *testing.T) {
	check := func(d Divisor, m, x uint64) {
		if q, rem := d.DivMod(x); q != x/m || rem != x%m {
			t.Fatalf("m=%d x=%d: DivMod = (%d, %d), want (%d, %d)", m, x, q, rem, x/m, x%m)
		}
	}
	divisors := []uint64{2, 3, 16, 111, 705, 1<<31 - 1, 1 << 31}
	for _, m := range divisors {
		d := NewDivisor(m)
		top := math.MaxUint64 / m // the largest k with k*m in the word
		for _, x := range []uint64{0, m - 1, m, 2*m - 1, 1<<32*m - 1, top*m - 1, top * m, 1<<63 - 1, math.MaxUint64} {
			check(d, m, x)
		}
	}
	r := rng.New(64)
	for i := 0; i < 1_000_000; i++ {
		x := r.Uint64()
		for _, m := range divisors {
			check(NewDivisor(m), m, x)
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
