package hash

import (
	"fmt"
	"math"
	"strconv"
	"testing"

	"shuffledp/internal/rng"
)

// The output sizes the family tests sweep: the binary and d' = 16
// cases, and the two SOLH sizes the paper-scale workloads run (111 at
// Kosarak's n, 705 at n = 10^6).
var familySizes = []int{2, 16, 111, 705}

// naiveCounts is the definition CountSupport must reproduce: one Hash
// per (report, value) pair.
func naiveCounts(fam Family, seeds, ys []uint64, d int) []int {
	want := make([]int, d)
	for i := range seeds {
		for v := 0; v < d; v++ {
			if fam.Hash(seeds[i], uint64(v)) == int(ys[i]) {
				want[v]++
			}
		}
	}
	return want
}

// FuzzCountSupport is the differential test the kernel rests on: for
// an arbitrary d' (so both loop orders run, the register-counted one
// below sweepMinOutputSize and the key-block sweep from it on), block
// length (so chunks end off the 128-report boundary and off the AVX-512
// kernel's eight-lane groups, and odd chunks leave the sweep a report
// without a pair), domain size (so the register path's three- and
// eight-candidate groups end in a tail and the key blocks end on and
// off their sweepBlock edges) and target placement (random, all in the
// first bucket, all in the last — the bucket whose upper bound wraps at
// 2^64), CountSupport equals the per-pair Hash loop on each kernel this
// CPU runs, and adds into counts rather than overwriting.
func FuzzCountSupport(f *testing.F) {
	f.Add(uint32(111), uint16(512), uint16(97), uint64(1), byte(0))
	f.Add(uint32(2), uint16(129), uint16(5), uint64(2), byte(1))
	f.Add(uint32(705), uint16(127), uint16(3), uint64(3), byte(2))
	f.Add(uint32(16), uint16(1), uint16(64), uint64(4), byte(0))
	f.Add(uint32(MaxOutputSize), uint16(130), uint16(9), uint64(5), byte(2))
	f.Add(uint32(MaxOutputSize-1), uint16(256), uint16(4), uint64(6), byte(1))
	f.Add(uint32(3), uint16(0), uint16(7), uint64(7), byte(0))
	f.Add(uint32(1<<20+1), uint16(300), uint16(0), uint64(8), byte(0))
	f.Add(uint32(sweepMinOutputSize-1), uint16(131), uint16(sweepBlock+1), uint64(9), byte(0))
	f.Add(uint32(sweepMinOutputSize), uint16(131), uint16(sweepBlock+1), uint64(10), byte(0))
	f.Add(uint32(sweepMinOutputSize), uint16(257), uint16(sweepBlock), uint64(11), byte(2))
	f.Add(uint32(64), uint16(3), uint16(2*sweepBlock), uint64(12), byte(1))
	f.Add(uint32(111), uint16(129), uint16(sweepBlock-1), uint64(13), byte(0))
	f.Add(uint32(705), uint16(1), uint16(2*sweepBlock+1), uint64(14), byte(0))
	f.Add(uint32(sweepMinOutputSize-1), uint16(supportChunk+9), uint16(23), uint64(15), byte(2))
	f.Fuzz(func(t *testing.T, dPrime uint32, reports, domain uint16, stream uint64, targets byte) {
		m := uint64(dPrime)
		if m < 2 || m > MaxOutputSize {
			m = 2 + m%(MaxOutputSize-1)
		}
		if m > math.MaxInt {
			t.Skip("d' = 2^31 needs a 64-bit int")
		}
		fam := NewFamily(int(m))
		n, d := int(reports%700), int(domain)%(2*sweepBlock+100)
		r := rng.New(stream)
		seeds := make([]uint64, n)
		ys := make([]uint64, n)
		for i := range seeds {
			seeds[i] = uint64(uint32(r.Uint64()))
			switch targets % 3 {
			case 0:
				ys[i] = r.Uint64n(m)
			case 1:
				ys[i] = 0
			case 2:
				ys[i] = m - 1
			}
		}
		want := naiveCounts(fam, seeds, ys, d)
		got := make([]int, d)
		for _, k := range supportKernels {
			for v := range got {
				got[v] = v // CountSupport accumulates
			}
			if !onKernel(k.avx512, func() { fam.CountSupport(seeds, ys, got) }) {
				continue
			}
			for v := range want {
				if got[v] != want[v]+v {
					t.Fatalf("%s: d'=%d n=%d d=%d targets=%d: counts[%d] += %d, want %d",
						k.name, m, n, d, targets%3, v, got[v]-v, want[v])
				}
			}
		}
	})
}

// testSeed is the i-th of a fixed sequence of seeds shaped like the
// ones users draw: arbitrary 32-bit words.
func testSeed(i uint64) uint64 { return uint64(uint32(i * 2654435761)) }

// chiSquareUniform returns Pearson's statistic of hist against the
// uniform distribution over its cells, and its degrees of freedom.
func chiSquareUniform(hist []int, total int) (stat float64, df int) {
	expect := float64(total) / float64(len(hist))
	for _, c := range hist {
		diff := float64(c) - expect
		stat += diff * diff / expect
	}
	return stat, len(hist) - 1
}

// chiSquareBand is the acceptance band: |X - df| <= 5 * sqrt(2 * df),
// five standard deviations of a chi-square with df degrees of freedom.
// (Under a uniform null Pearson's statistic has variance 2*df*(N-2)/N
// whatever the cell occupancy, so the band holds for the sparse d'^2
// histograms too.) Seeds are fixed, so a pass is a pass forever.
func chiSquareBand(stat float64, df int) bool {
	return math.Abs(stat-float64(df)) <= 5*math.Sqrt(2*float64(df))
}

// Pairwise uniformity is what the unbiasedness of the local-hashing
// estimate and Equation (4)'s variance rest on: for u != v,
// (H(u), H(v)) is uniform on [d']^2 over the draw of the seed. The
// family has it by theorem for uniform (a, b); this checks the whole
// construction — 32-bit seed, xxHash64 expansion, pi, range reduction —
// over 2^18 seeds, for adjacent keys, keys a power of two apart (where
// a bare multiplicative family is weakest) and random pairs.
func TestFamilyPairwiseUniform(t *testing.T) {
	const seeds = 1 << 18
	type pair struct{ u, v uint64 }
	pairs := []pair{
		{0, 1}, {12345, 12346}, {42176, 42177}, // adjacent
		{0, 2}, {7, 7 + 1<<8}, {1, 1 + 1<<16}, {5, 5 + 1<<31}, // power-of-two apart
	}
	r := rng.New(2020)
	for len(pairs) < 11 {
		u, v := r.Uint64n(MaxKeys), r.Uint64n(MaxKeys)
		if u != v {
			pairs = append(pairs, pair{u, v})
		}
	}
	for _, dPrime := range familySizes {
		fam := NewFamily(dPrime)
		for _, p := range pairs {
			hist := make([]int, dPrime*dPrime)
			for s := uint64(0); s < seeds; s++ {
				seed := testSeed(s)
				hist[fam.Hash(seed, p.u)*dPrime+fam.Hash(seed, p.v)]++
			}
			if stat, df := chiSquareUniform(hist, seeds); !chiSquareBand(stat, df) {
				t.Errorf("d'=%d (u,v)=(%d,%d): joint chi-square %.1f outside the band around %d",
					dPrime, p.u, p.v, stat, df)
			}
		}
	}
}

// tripleCollisions counts, over the given seeds and progressions
// (u, u+s, u+2s), how often all three keys share a bucket under h.
func tripleCollisions(h func(seed, v uint64) int, progressions [][2]uint64, seeds uint64) int {
	hits := 0
	for _, p := range progressions {
		u, s := p[0], p[1]
		for i := uint64(0); i < seeds; i++ {
			seed := testSeed(i)
			if x := h(seed, u); x == h(seed, u+s) && x == h(seed, u+2*s) {
				hits++
			}
		}
	}
	return hits
}

// The reason pi exists. Multiply-add-shift is pairwise, not 3-wise,
// independent: a bare a*v + b sends the progression u, u+s, u+2s to
// hashes h, h+t, h+2t, so whenever the first two share a bucket the
// third usually does too, and P[H(u) = H(u+s) = H(u+2s)] comes out near
// 1/(2d') instead of 1/d'^2 — the support counts of evenly spaced
// values move together. With pi in front the keys are no longer in
// progression and the triple rate sits in the chi-square band of
// 1/d'^2. The bare family is kept here as the negative control: it must
// fail the same band, or this test has stopped testing anything.
func TestFamilyProgressionTriples(t *testing.T) {
	const seeds = 1 << 20
	progressions := [][2]uint64{
		{0, 1}, {0, 2}, {100, 1}, {7, 3}, {42000, 64}, {1, 1 << 12}, {12345, 1000}, {3, 1 << 20},
	}
	trials := float64(seeds * uint64(len(progressions)))
	for _, dPrime := range familySizes {
		fam := NewFamily(dPrime)
		bare := func(seed, v uint64) int {
			h := Sum64Uint64(seed, 0)*v + Sum64Uint64(seed, 1)
			return int((h >> 32) * uint64(dPrime) >> 32)
		}
		p := 1 / float64(dPrime*dPrime)
		// One-degree-of-freedom chi-square of the pooled triple count
		// against Binomial(trials, 1/d'^2), held to 5 sigma.
		outside := func(hits int) (float64, bool) {
			z := (float64(hits) - trials*p) / math.Sqrt(trials*p*(1-p))
			return z * z, z*z > 25
		}
		hits := tripleCollisions(fam.Hash, progressions, seeds)
		if stat, bad := outside(hits); bad {
			t.Errorf("d'=%d: %d triple collisions, want ~%.1f (chi-square %.1f > 25)", dPrime, hits, trials*p, stat)
		}
		if dPrime == 2 {
			// With two buckets the bare family's triple rate measures
			// ~1/4 too: the control has nothing to detect there.
			continue
		}
		bareHits := tripleCollisions(bare, progressions, seeds)
		if stat, bad := outside(bareHits); !bad {
			t.Errorf("d'=%d: the bare a*v+b family passed the triple test (%d hits, chi-square %.1f): the test no longer detects a missing pi",
				dPrime, bareHits, stat)
		}
	}
}

// The pairwise theorem survives pi only because pi is injective and
// stays inside the 32-bit key space; checked on the index-shaped keys
// the oracles use and on random ones.
func TestScrambleIsABijectionOnSampledKeys(t *testing.T) {
	seen := make(map[uint64]uint32, 1<<16)
	r := rng.New(5)
	for i := 0; i < 1<<16; i++ {
		v := uint32(r.Uint64())
		if i < 1<<12 {
			v = uint32(i) // the index-shaped keys the oracles use
		}
		k := scramble(v)
		if k >= MaxKeys {
			t.Fatalf("scramble(%d) = %d leaves the 32-bit key space", v, k)
		}
		if prev, dup := seen[k]; dup && prev != v {
			t.Fatalf("scramble(%d) = scramble(%d)", v, prev)
		}
		seen[k] = v
	}
}

// Hash runs once per report on every client and CountSupport is the
// server's whole aggregation cost: neither may allocate, in either of
// the kernel's loop orders, on either kernel of the register path.
func TestFamilyKernelsDoNotAllocate(t *testing.T) {
	forKernels(t, func(t *testing.T) {
		for _, dPrime := range []int{16, 111} {
			fam := NewFamily(dPrime)
			seeds := make([]uint64, 301) // an odd chunk: the sweep's lone report
			ys := make([]uint64, 301)    // zero targets are valid buckets
			counts := make([]int, sweepBlock+1001)
			if a := testing.AllocsPerRun(10, func() { fam.CountSupport(seeds, ys, counts) }); a != 0 {
				t.Errorf("d'=%d: CountSupport allocates %v times per call", dPrime, a)
			}
		}
	})
	fam := NewFamily(111)
	sink := 0
	if a := testing.AllocsPerRun(100, func() { sink += fam.Hash(uint64(sink), 77) }); a != 0 {
		t.Errorf("Hash allocates %v times per call", a)
	}
}

// Hash and CountSupport state their domains; the constructor and the
// kernel enforce the output-size half.
func TestFamilyOutputSizeBounds(t *testing.T) {
	// Sizes of 2^31 and up come from a uint64 variable, so the file
	// builds where int is 32 bits; the rows that need them skip there.
	const narrow = "output sizes of 2^31 and up need a 64-bit int"
	bound := uint64(MaxOutputSize)
	if strconv.IntSize == 64 {
		NewFamily(int(bound)) // the bound itself is valid
	}
	for _, size := range []int64{-1, 0, 1, int64(bound) + 1} {
		t.Run(fmt.Sprint(size), func(t *testing.T) {
			if int64(int(size)) != size {
				t.Skip(narrow)
			}
			defer func() {
				if recover() == nil {
					t.Fatalf("NewFamily(%d) did not panic", size)
				}
			}()
			NewFamily(int(size))
		})
	}
	t.Run("kernel on a hand-built family", func(t *testing.T) {
		if strconv.IntSize < 64 {
			t.Skip(narrow)
		}
		defer func() {
			if recover() == nil {
				t.Fatal("CountSupport accepted OutputSize > 2^31")
			}
		}()
		Family{OutputSize: int(bound + 1)}.CountSupport([]uint64{1}, []uint64{0}, make([]int, 4))
	})
}
