package secretshare

import (
	"math"
	"testing"
	"testing/quick"

	"shuffledp/internal/rng"
)

// combine reconstructs a secret from all of its shares.
func combine(shares []uint64, mod Modulus) uint64 {
	sum := uint64(0)
	for _, s := range shares {
		sum = mod.Add(sum, s)
	}
	return sum
}

func TestModulusBasics(t *testing.T) {
	m := NewModulus(8)
	if m.mask != 255 {
		t.Fatal("mask")
	}
	if m.Reduce(256) != 0 || m.Reduce(257) != 1 {
		t.Fatal("Reduce")
	}
	if m.Add(200, 100) != 44 {
		t.Fatal("Add wrap")
	}
	if m.Sub(1, 2) != 255 {
		t.Fatal("Sub wrap")
	}
}

func TestModulus64(t *testing.T) {
	m := NewModulus(64)
	if m.Add(^uint64(0), 1) != 0 {
		t.Fatal("64-bit wrap")
	}
	if m.Reduce(^uint64(0)) != ^uint64(0) {
		t.Fatal("64-bit reduce is identity")
	}
}

func TestNewModulusPanics(t *testing.T) {
	for _, bits := range []int{0, 65, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for bits=%d", bits)
				}
			}()
			NewModulus(bits)
		}()
	}
}

func TestSplitCombineRoundTrip(t *testing.T) {
	src := rng.New(1)
	for _, bits := range []int{1, 8, 32, 64} {
		mod := NewModulus(bits)
		for _, r := range []int{2, 3, 7} {
			for i := 0; i < 200; i++ {
				v := mod.Random(src)
				shares := Split(v, r, mod, src)
				if len(shares) != r {
					t.Fatalf("wrong share count %d", len(shares))
				}
				if got := combine(shares, mod); got != v {
					t.Fatalf("bits=%d r=%d: combine %d != %d", bits, r, got, v)
				}
			}
		}
	}
}

func TestSplitPanicsSingleShare(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Split(5, 1, NewModulus(8), rng.New(1))
}

// Hiding: any r-1 shares are (statistically) uniform, independent of
// the secret. We check the first share's distribution for two very
// different secrets.
func TestSharesHideSecret(t *testing.T) {
	mod := NewModulus(4) // 16 values for cheap chi-square
	src := rng.New(2)
	const trials = 64000
	for _, secret := range []uint64{0, 13} {
		counts := make([]int, 16)
		for i := 0; i < trials; i++ {
			counts[Split(secret, 3, mod, src)[0]]++
		}
		want := float64(trials) / 16
		for v, c := range counts {
			if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
				t.Errorf("secret %d: share value %d count %d, want ~%.0f", secret, v, c, want)
			}
		}
	}
}

// Property: round trip for random values, share counts, and moduli.
func TestQuickSplitCombine(t *testing.T) {
	src := rng.New(3)
	f := func(v uint64, rRaw uint8, bitsRaw uint8) bool {
		r := 2 + int(rRaw%8)
		bits := 1 + int(bitsRaw%64)
		mod := NewModulus(bits)
		return combine(Split(v, r, mod, src), mod) == mod.Reduce(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSplitVectorCombineVectors(t *testing.T) {
	mod := NewModulus(64)
	src := rng.New(4)
	values := []uint64{0, 1, ^uint64(0), 42, 1 << 63}
	sv := SplitVector(values, 5, mod, src)
	if len(sv) != 5 {
		t.Fatalf("want 5 share vectors, got %d", len(sv))
	}
	for i, v := range values {
		shares := make([]uint64, len(sv))
		for j := range sv {
			shares[j] = sv[j][i]
		}
		if got := combine(shares, mod); got != v {
			t.Fatalf("index %d: %d != %d", i, got, v)
		}
	}
}

// Resharing linearity: splitting each share of a sharing again and
// summing everything still reconstructs — the property the oblivious
// shuffle's reshare step depends on.
func TestReshareLinearity(t *testing.T) {
	mod := NewModulus(64)
	src := rng.New(5)
	secret := uint64(0xdeadbeefcafef00d)
	first := Split(secret, 3, mod, src)
	var all []uint64
	for _, s := range first {
		all = append(all, Split(s, 4, mod, src)...)
	}
	if got := combine(all, mod); got != secret {
		t.Fatalf("reshare lost the secret: %x != %x", got, secret)
	}
}

func TestCryptoSource(t *testing.T) {
	// Smoke test: distinct outputs, no panic.
	a, b := Crypto.Uint64(), Crypto.Uint64()
	if a == b {
		// Technically possible, astronomically unlikely.
		c := Crypto.Uint64()
		if a == c {
			t.Fatal("crypto source returned repeated values")
		}
	}
}
