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

// redcBranch is one of mulRedc's two branches on a Montgomery context.
type redcBranch struct {
	name string
	m    *mont
}

// redcBranches returns copies of m that take mulRedc's portable
// three-Mul REDC and, on a CPU that runs it, the fused kernel.
func redcBranches(m *mont) []redcBranch {
	portable := *m
	portable.kernel = false
	branches := []redcBranch{{"portable", &portable}}
	if hasMontKernel {
		kernel := *m
		kernel.kernel = true
		branches = append(branches, redcBranch{"kernel", &kernel})
	}
	return branches
}

// checkMulRedc holds one (x, y) pair to the reference on both branches
// through every aliasing shape the kernels use — fresh destination,
// z == x, z == y, and the squaring z == x == y — on the caller's
// (dirty) scratch.
func checkMulRedc(t *testing.T, m *mont, x, y *big.Int, sc *Scratch) {
	t.Helper()
	want, wantSq := redcReference(x, y, m.n), redcReference(x, x, m.n)
	for _, b := range redcBranches(m) {
		check := func(shape string, got, want *big.Int) {
			t.Helper()
			if got.Sign() < 0 || got.Cmp(m.n) >= 0 {
				t.Fatalf("%s, %d-word modulus %v, %s: result outside [0, n)", b.name, m.k, m.n, shape)
			}
			if got.Cmp(want) != 0 {
				t.Fatalf("%s, %d-word modulus %v, %s: mulRedc(%v, %v) = %v, want %v", b.name, m.k, m.n, shape, x, y, got, want)
			}
		}
		z := new(big.Int)
		b.m.mulRedc(z, x, y, sc)
		check("fresh z", z, want)
		zx := new(big.Int).Set(x)
		b.m.mulRedc(zx, zx, y, sc)
		check("z == x", zx, want)
		zy := new(big.Int).Set(y)
		b.m.mulRedc(zy, x, zy, sc)
		check("z == y", zy, want)
		sq := new(big.Int).Set(x)
		b.m.mulRedc(sq, sq, sq, sc)
		check("z == x == y", sq, wantSq)
	}
}

// TestMulRedcMatchesMulMod is the named CI gate of the division-free
// multiplication: at every word count from 48 (3072 bits) down to 1,
// for a random full-width modulus, one whose top word is short, one
// just above 2^(64(k-1)) (top word exactly 1), the all-ones modulus and
// n = 1, and for the edge operands (0, 1, n-1, R mod n, so x = y = n-1
// among them) and random ones, both branches of mulRedc equal
// x*y*R^-1 mod n, land in [0, n), tolerate z aliasing its operands,
// and carry nothing over in a scratch reused across moduli of
// different sizes.
func TestMulRedcMatchesMulMod(t *testing.T) {
	var sc Scratch // one dirty scratch for every modulus, wide ones first
	for k := 48; k >= 1; k-- {
		nbits := k * bits.UintSize
		var moduli []*big.Int
		for _, top := range []int{nbits, nbits - 1 - k%(bits.UintSize-1)} {
			n, err := rand.Int(rand.Reader, new(big.Int).Lsh(bigOne, uint(top-1)))
			if err != nil {
				t.Fatal(err)
			}
			moduli = append(moduli, n.SetBit(n, top-1, 1).SetBit(n, 0, 1))
		}
		allOnes := new(big.Int).Sub(new(big.Int).Lsh(bigOne, uint(nbits)), bigOne)
		if k == 1 {
			moduli = append(moduli, allOnes, big.NewInt(1))
		} else {
			// Just above 2^(64(k-1)): top word exactly 1.
			moduli = append(moduli, allOnes, new(big.Int).SetBit(big.NewInt(12345), nbits-bits.UintSize, 1))
		}
		for _, n := range moduli {
			m := newMont(n)
			if m.k != k {
				t.Fatalf("modulus %v: k = %d words, want %d", n, m.k, k)
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
			for _, b := range redcBranches(m) {
				back := new(big.Int)
				if b.m.mulRedc(back, b.m.toMont(x, &sc), bigOne, &sc); back.Cmp(x) != 0 {
					t.Fatalf("%s, modulus %v: REDC(toMont(x)) != x", b.name, n)
				}
			}
		}
	}
}

// TestExpMatchesBigExp holds both branches of mont.exp to x^e*R mod n
// from big.Int.Exp, at the word counts of the deployed p (8, and 24 at
// 3072 bits) and odd ones, for the edge bases, e = 1, exponents whose
// windows are zero between nonzero ones, and random 160-bit ones.
func TestExpMatchesBigExp(t *testing.T) {
	var sc Scratch
	exps := []*big.Int{big.NewInt(1), big.NewInt(0x10), big.NewInt(0xf00f), new(big.Int).Lsh(big.NewInt(3), 157)}
	for range 6 {
		e, err := rand.Int(rand.Reader, new(big.Int).Lsh(bigOne, dgkSubgroupBits))
		if err != nil {
			t.Fatal(err)
		}
		exps = append(exps, e.SetBit(e, dgkSubgroupBits-1, 1))
	}
	for _, k := range []int{1, 3, 4, 8, 13, 24} {
		n, err := rand.Int(rand.Reader, new(big.Int).Lsh(bigOne, uint(k*bits.UintSize)))
		if err != nil {
			t.Fatal(err)
		}
		n.SetBit(n, k*bits.UintSize-1, 1).SetBit(n, 0, 1)
		m := newMont(n)
		x, err := rand.Int(rand.Reader, n)
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range []*big.Int{new(big.Int), big.NewInt(1), new(big.Int).Sub(n, bigOne), x} {
			for _, e := range exps {
				want := new(big.Int).Exp(x, e, n)
				want.Mul(want, m.one).Mod(want, n)
				for _, b := range redcBranches(m) {
					got := new(big.Int).Set(x) // z aliases x, as decryptFast has it
					if b.m.exp(got, got, e, expWindows(e), &sc); got.Cmp(want) != 0 {
						t.Fatalf("%s, %d words: exp(%v, %v) = %v, want %v", b.name, k, x, e, got, want)
					}
				}
			}
		}
	}
}

// TestPortableBranchMatchesKernel drives the three-Mul REDC through
// every DGK kernel, so a host with the fused kernel still checks the
// path every other host runs: for each conformance key, tables and
// decryption digit rows built on the portable branch must equal the
// key's own entry for entry, and the fixed-base chains, c^vp and whole
// decryptions run on it must give the key's own results.
func TestPortableBranchMatchesKernel(t *testing.T) {
	var sc Scratch
	equal := func(a, b [][]*big.Int) bool {
		for i := range a {
			for j := range a[i] {
				if a[i][j].Cmp(b[i][j]) != 0 {
					return false
				}
			}
		}
		return len(a) == len(b)
	}
	for _, key := range conformanceKeys(t) {
		fb := key.fb.ensure(key.DGKPublicKey)
		port := redcBranches(fb.m)[0].m
		gTab, hTab := newFBTable(key.g, port, key.l), newFBTable(key.h, port, dgkRndBits)
		if !equal(gTab.win, fb.gTab.win) || !equal(hTab.win, fb.hTab.win) {
			t.Fatalf("l=%d: a fixed-base table built on the portable branch differs", key.l)
		}
		dec := *key.dec
		dec.m = redcBranches(key.dec.m)[0].m
		var bases []*big.Int
		for _, row := range key.dec.inv {
			bases = append(bases, row[0])
		}
		if want := key.dec.m.powerRows(bases); !equal(dec.m.powerRows(bases), want) {
			t.Fatalf("l=%d: decryption rows built on the portable branch differ", key.l)
		}
		portKey := *key
		portKey.dec = &dec
		for i := range 20 {
			e, err := key.randomizer()
			if err != nil {
				t.Fatal(err)
			}
			got, want := big.NewInt(int64(i+1)), big.NewInt(int64(i+1))
			hTab.mulInto(got, e, &sc)
			fb.hTab.mulInto(want, e, &sc)
			if got.Cmp(want) != 0 {
				t.Fatalf("l=%d: h^%v differs on the portable branch", key.l, e)
			}
			m := uint64(i) * 0x9e3779b97f4a7c15
			c, err := key.Encrypt(m)
			if err != nil {
				t.Fatal(err)
			}
			cp := new(big.Int).Mod(c.v, key.p)
			got.Set(cp)
			dec.m.exp(got, got, key.vp, dec.vpWin, &sc)
			want.Set(cp)
			key.dec.m.exp(want, want, key.vp, key.dec.vpWin, &sc)
			if got.Cmp(want) != 0 {
				t.Fatalf("l=%d: c^vp differs on the portable branch", key.l)
			}
			gotM, ok := portKey.decryptFast(c, &sc)
			if wantM, _ := key.decryptFast(c, &sc); !ok || gotM != wantM || gotM != key.reduce(m).Uint64() {
				t.Fatalf("l=%d: Decrypt on the portable branch = %d (ok %v), want %d", key.l, gotM, ok, key.reduce(m).Uint64())
			}
		}
	}
}

// FuzzMulRedc drives both branches with arbitrary odd moduli and
// reduced operands against the ModInverse reference.
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
