package ahe

import (
	"crypto/rand"
	"math/big"
	"math/bits"
	"testing"
)

// redcReference is mulRedc's definition computed the slow way:
// x*y*R^-1 mod n with R^-1 from ModInverse.
func redcReference(x, y, n *big.Int) *big.Int {
	r := new(big.Int).Lsh(bigOne, uint(len(n.Bits())*bits.UintSize))
	want := new(big.Int).Mul(x, y)
	want.Mul(want, r.ModInverse(r, n))
	return want.Mod(want, n)
}

// checkMulRedc holds one (x, y) pair to the reference through every
// aliasing shape the kernels use — fresh destination, z == x, z == y,
// and the squaring z == x == y — on the caller's (dirty) scratch.
func checkMulRedc(t *testing.T, m *mont, x, y *big.Int, sc *Scratch) {
	t.Helper()
	check := func(shape string, got, want *big.Int) {
		t.Helper()
		if got.Sign() < 0 || got.Cmp(m.n) >= 0 {
			t.Fatalf("%d-bit modulus, %s: result outside [0, n)", m.n.BitLen(), shape)
		}
		if got.Cmp(want) != 0 {
			t.Fatalf("%d-bit modulus, %s: mulRedc(%v, %v) = %v, want %v", m.n.BitLen(), shape, x, y, got, want)
		}
	}
	want := redcReference(x, y, m.n)
	z := new(big.Int)
	m.mulRedc(z, x, y, sc)
	check("fresh z", z, want)
	zx := new(big.Int).Set(x)
	m.mulRedc(zx, zx, y, sc)
	check("z == x", zx, want)
	zy := new(big.Int).Set(y)
	m.mulRedc(zy, x, zy, sc)
	check("z == y", zy, want)
	sq := new(big.Int).Set(x)
	m.mulRedc(sq, sq, sq, sc)
	check("z == x == y", sq, redcReference(x, x, m.n))
}

// TestMulRedcMatchesMulMod is the named CI gate of the division-free
// kernel: across modulus widths on and off the word boundary (and one
// whose top word is exactly 1), for the edge operands and random ones,
// mulRedc equals x*y*R^-1 mod n, lands in [0, n), tolerates z aliasing
// its operands, and carries nothing over in a scratch reused across
// moduli of different sizes.
func TestMulRedcMatchesMulMod(t *testing.T) {
	var sc Scratch // one dirty scratch for every modulus, wide ones first
	for _, nbits := range []int{2048, 1024, 1000, 512, 257, 256, 255} {
		n, err := rand.Int(rand.Reader, new(big.Int).Lsh(bigOne, uint(nbits-1)))
		if err != nil {
			t.Fatal(err)
		}
		n.SetBit(n, nbits-1, 1).SetBit(n, 0, 1)
		moduli := []*big.Int{n}
		if nbits%bits.UintSize == 1 {
			// Top word exactly 1: 2^(nbits-1) + (a small odd number).
			moduli = append(moduli, new(big.Int).SetBit(big.NewInt(12345), nbits-1, 1))
		}
		for _, n := range moduli {
			m := newMont(n)
			if m.k != (nbits+bits.UintSize-1)/bits.UintSize {
				t.Fatalf("%d-bit modulus: k = %d words", nbits, m.k)
			}
			ops := []*big.Int{new(big.Int), big.NewInt(1), new(big.Int).Sub(n, bigOne), m.one}
			for i := 0; i < 4; i++ {
				x, err := rand.Int(rand.Reader, n)
				if err != nil {
					t.Fatal(err)
				}
				ops = append(ops, x)
			}
			for _, x := range ops {
				for _, y := range ops {
					checkMulRedc(t, m, x, y, &sc)
				}
			}
			// The conversions the tables rest on: into Montgomery form and
			// back out.
			x := ops[len(ops)-1]
			back := new(big.Int)
			if m.mulRedc(back, m.toMont(x, &sc), bigOne, &sc); back.Cmp(x) != 0 {
				t.Fatalf("%d-bit modulus: REDC(toMont(x)) != x", nbits)
			}
		}
	}
}

// FuzzMulRedc drives the kernel with arbitrary odd moduli and reduced
// operands against the ModInverse reference.
func FuzzMulRedc(f *testing.F) {
	// Edge shapes (modulus 1, top word exactly 1, all-ones, even bytes
	// forced odd, operands wider than n) are in testdata/fuzz.
	f.Add([]byte{0xfb}, []byte{0x02}, []byte{0x03})
	f.Fuzz(func(t *testing.T, nb, xb, yb []byte) {
		if len(nb) == 0 || len(nb) > 512 {
			return
		}
		n := new(big.Int).SetBytes(nb)
		n.SetBit(n, 0, 1)
		x := new(big.Int).SetBytes(xb)
		y := new(big.Int).SetBytes(yb)
		checkMulRedc(t, newMont(n), x.Mod(x, n), y.Mod(y, n), new(Scratch))
	})
}
