package ahe

import (
	"os"
	"testing"
	"time"
)

// TestMontMulsPerOpGolden bounds what each DGK operation costs in
// Montgomery multiplications at the contract benchmark's 1024-bit key
// fixture, on every kernel this CPU runs, counted on the caller's
// Scratch (mont.go bumps its redcs once per multiplication on every
// kernel, and twice per mul2 — a pair counts two): at most 8 for g^m,
// one per nonzero byte of a 64-bit plaintext; exactly one per nonzero
// byte of the 400-bit randomizer, at most 50, for an inline h^r alone;
// 1 for a pooled h^r; for a chunk's pooled pair, two per byte where
// either plaintext is nonzero and two for the pair of hits; for a missed
// lane and its spare, two per byte where either randomizer is nonzero,
// at most 100 for two randomizers; and for decryption, c^vp's conversion and the 56 squarings of
// the digit chain plus one correction per nonzero digit below each
// round, and on the assembly kernels the windowed c^vp (14 powers, 156
// squarings, one multiplication per nonzero window of vp after the
// first) where the portable kernel calls big.Int.Exp. A pair of equal
// ciphertexts decrypts for exactly twice one's count. With cluster's
// TestPEOSWorkCountsGolden — how many operations a benchmark round
// runs — it is the AHE layer's work count.
func TestMontMulsPerOpGolden(t *testing.T) {
	blob, err := os.ReadFile("../../benchmark/testdata/dgk1024.key")
	if err != nil {
		t.Fatal(err)
	}
	fixture, err := UnmarshalDGKPrivateKey(blob)
	if err != nil {
		t.Fatal(err)
	}
	forKernels(t, func(t *testing.T, kern kernel) {
		key := onKernel(fixture, kern)
		if kern == fixture.fb.ensure(fixture.DGKPublicKey).m.kern {
			key = fixture // the pool runs on the key's own tables
		}
		montMulsPerOp(t, key, kern)
	})
}

func montMulsPerOp(t *testing.T, key *DGKPrivateKey, kern kernel) {
	var sc Scratch
	count := func(op func() error) uint64 {
		t.Helper()
		before := sc.redcs
		if err := op(); err != nil {
			t.Fatal(err)
		}
		return sc.redcs - before
	}
	c, err := key.Encrypt(0)
	if err != nil {
		t.Fatal(err)
	}
	cs := []*Ciphertext{c}
	fold := func(ms []uint64, refresh bool) func() error {
		return func() error { return key.FoldChunk(cs[:len(ms)], cs[:len(ms)], ms, refresh, &sc) }
	}
	// rows is the byte positions of the n randomizers the last draw read
	// (n = 1: the first 50 bytes of sc.rnd; n = 2: both halves, one
	// big-endian exponent each) where any of them is nonzero: the rows
	// of h's table its chain multiplied.
	rows := func(n int) uint64 {
		const size = dgkRndBits / 8
		var got uint64
		for j := range size {
			if sc.rnd[j] != 0 || n == 2 && sc.rnd[size+j] != 0 {
				got++
			}
		}
		return got
	}

	for _, m := range []uint64{0, 1, 0x0100_0000_0000_0001, 0x8000_0000_0000_0000, 1<<64 - 1, 0x0123_4567_89ab_cdef} {
		want := uint64(0)
		for v := m; v != 0; v >>= 8 {
			if v&0xff != 0 {
				want++
			}
		}
		if got := count(fold([]uint64{m}, false)); got != want || got > 8 {
			t.Errorf("g^m for m = %#x: %d multiplications, want %d", m, got, want)
		}
	}

	for range 20 {
		if got := count(fold([]uint64{0}, true)); got != rows(1) || got > 50 {
			t.Errorf("inline h^r: %d multiplications, want %d of at most 50", got, rows(1))
		}
	}

	// A pooled pair: g^m on mul2 at the union of the two plaintexts'
	// nonzero bytes (0 and 7), then both pooled h^r*R with one mul2 — 2
	// and 1 pairs, each counting two.
	c2, err := key.Encrypt(0)
	if err != nil {
		t.Fatal(err)
	}
	cs = append(cs, c2)
	_, remove := holdPool(t, key, 2, 2)
	hits, misses := key.RandomizerPoolStats()
	got := count(fold([]uint64{1, 0x0100_0000_0000_0001}, true))
	remove()
	if h, mi := key.RandomizerPoolStats(); got != 6 || h != hits+2 || mi != misses {
		t.Errorf("pooled pair: %d multiplications (hits +%d, misses +%d), want 6 from 2 hits", got, h-hits, mi-misses)
	}

	// A missed lane with its spare: the lane's g^m alone (2 nonzero
	// bytes), then its h^r beside the spare's on mul2 — a pair counts
	// two, so at most 100 for two randomizers, the same 50 per
	// randomizer as one inline chain, at the pair kernel's price.
	p, remove := holdPool(t, key, 1, 0)
	hits, misses = key.RandomizerPoolStats()
	got = count(fold([]uint64{0x0101}, true))
	remove()
	if h, mi := key.RandomizerPoolStats(); got != 2+2*rows(2) || got > 102 || h != hits || mi != misses+1 || p.size.Load() != 1 {
		t.Errorf("missed lane with its spare: %d multiplications (hits +%d, misses +%d, %d spares pooled), want %d of at most 102, one miss and one spare",
			got, h-hits, mi-misses, p.size.Load(), 2+2*rows(2))
	}

	stop := key.StartRandomizerPool()
	for deadline := time.Now().Add(5 * time.Second); key.fb.pool.Load().size.Load() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("a started pool stayed empty for 5 s")
		}
		time.Sleep(time.Millisecond)
	}
	hits, _ = key.RandomizerPoolStats()
	got = count(fold([]uint64{0}, true))
	stop()
	if after, _ := key.RandomizerPoolStats(); after != hits+1 || got != 1 {
		t.Errorf("pooled h^r: %d multiplications (pool hits %d -> %d), want 1 from the pool", got, hits, after)
	}

	// Decryption: m's eight digits all nonzero, so round i corrects i
	// digits (28 in all), and m = 0, which corrects none. The fixture's
	// vp has 36 nonzero windows of 40.
	for _, tc := range []struct {
		m                uint64
		portable, kernel uint64
	}{{0x0101_0101_0101_0101, 85, 290}, {0, 57, 262}} {
		c, err := key.Encrypt(tc.m)
		if err != nil {
			t.Fatal(err)
		}
		want := tc.kernel
		if kern == kernelPortable {
			want = tc.portable
		}
		got := count(func() error {
			if m, ok := key.decryptFast(c, &sc); !ok || m != tc.m {
				t.Fatalf("decryptFast = %#x, %v; want %#x", m, ok, tc.m)
			}
			return nil
		})
		if got != want {
			t.Errorf("Decrypt of %#x: %d multiplications, want %d", tc.m, got, want)
		}
		got = count(func() error {
			if ms, ok := key.decryptPair(c, c, &sc); ms != [2]uint64{tc.m, tc.m} || ok != [2]bool{true, true} {
				t.Fatalf("decryptPair = %#x, %v; want %#x twice", ms, ok, tc.m)
			}
			return nil
		})
		if got != 2*want {
			t.Errorf("pair decryption of %#x twice: %d multiplications, want %d", tc.m, got, 2*want)
		}
	}
}
