package ahe

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"math/bits"
	"testing"

	"shuffledp/internal/cpuid"
)

// redcReference is mont.mul's definition computed the slow way:
// x*y*R^-1 mod n with R^-1 from ModInverse, R being m's.
func redcReference(x, y *big.Int, m *mont) *big.Int {
	r := m.r()
	want := new(big.Int).Mul(x, y)
	want.Mul(want, r.ModInverse(r, m.n))
	return want.Mod(want, m.n)
}

// r returns m's R: 2^(52 rows) on IFMA, 2^(64k) on the word kernels.
func (m *mont) r() *big.Int {
	if m.kern == kernelIFMA {
		return new(big.Int).Lsh(bigOne, uint(52*m.rows))
	}
	return new(big.Int).Lsh(bigOne, uint(m.k*bits.UintSize))
}

// raw returns the value x holds, not reduced.
func (m *mont) raw(x elem) *big.Int {
	if m.kern != kernelIFMA {
		return new(big.Int).SetBits(append([]big.Word(nil), x...))
	}
	zw := make([]big.Word, m.k+1)
	fromLimbs(zw, x)
	return new(big.Int).SetBits(zw)
}

// value returns REDC(x) in [0, n): the residue a Montgomery-form x
// stands for.
func (m *mont) value(x elem, sc *Scratch) *big.Int {
	e := m.elems(2)
	m.set(e[0], bigOne)
	m.mul(e[1], x, e[0], sc)
	z := new(big.Int)
	m.get(z, e[1])
	return z
}

// redcBranch is one form of mont's multiplication: a kernel, one
// product at a time or two through mul2.
type redcBranch struct {
	name string
	kern kernel
	pair bool
}

var kernelNames = map[kernel]string{kernelPortable: "portable", kernelADX: "adx", kernelIFMA: "ifma"}

var redcBranchList = func() (list []redcBranch) {
	for _, kern := range []kernel{kernelPortable, kernelADX, kernelIFMA} {
		list = append(list, redcBranch{kernelNames[kern], kern, false}, redcBranch{kernelNames[kern] + "-pair", kern, true})
	}
	return list
}()

// missingFeature names what this CPU lacks to run kern, "" when it
// runs it.
func missingFeature(kern kernel) string {
	switch {
	case kern == kernelADX && !cpuid.ADX:
		return "this CPU lacks ADX or BMI2"
	case kern == kernelIFMA && !cpuid.IFMA:
		return "this CPU or its OS lacks AVX512F, AVX512VL or AVX512_IFMA"
	}
	return ""
}

// forBranches runs f in one subtest per branch, and skips the kernels
// this CPU does not run by the feature it lacks.
func forBranches(t *testing.T, f func(t *testing.T, b redcBranch)) {
	for _, b := range redcBranchList {
		t.Run(b.name, func(t *testing.T) {
			if why := missingFeature(b.kern); why != "" {
				t.Skip(why)
			}
			f(t, b)
		})
	}
}

// forKernels is forBranches over the kernels alone, for tests whose
// chains run mul2 themselves.
func forKernels(t *testing.T, f func(t *testing.T, kern kernel)) {
	for _, kern := range []kernel{kernelPortable, kernelADX, kernelIFMA} {
		t.Run(kernelNames[kern], func(t *testing.T) {
			if why := missingFeature(kern); why != "" {
				t.Skip(why)
			}
			f(t, kern)
		})
	}
}

// covers reports whether b's kernel takes modulus n: IFMA stops at
// ifmaMaxRows limbs.
func (b redcBranch) covers(n *big.Int) bool {
	return b.kern != kernelIFMA || ifmaRows(n) <= ifmaMaxRows
}

// mul runs z = x*y*R^-1 on b: alone, or as lane 0 of a mul2 whose lane
// 1 multiplies y by x into a scratch elem and must agree.
func (b redcBranch) mul(t *testing.T, m *mont, z, x, y elem, sc *Scratch) {
	t.Helper()
	if !b.pair {
		m.mul(z, x, y, sc)
		return
	}
	e := m.elems(3) // lane 1's own copies: z may alias x or y
	z1, xc, yc := e[0], e[1], e[2]
	copy(xc, x)
	copy(yc, y)
	m.mul2(z, x, y, z1, yc, xc, sc)
	if got, want := m.raw(z1), m.raw(z); got.Cmp(want) != 0 {
		t.Fatalf("%s: the pair's lanes disagree on x*y = y*x: %v and %v", b.name, want, got)
	}
}

// checkMulRedc holds one (x, y) pair to the reference on branch b
// through every aliasing shape the kernels use — fresh destination,
// z == x, z == y, the squaring z == x == y, and for a pair both lanes
// on the same operands — on the caller's (dirty) scratch. On IFMA it
// also feeds x + n, the kernel's almost-reduced input range.
func checkMulRedc(t *testing.T, b redcBranch, m *mont, x, y *big.Int, sc *Scratch) {
	t.Helper()
	want, wantSq := redcReference(x, y, m), redcReference(x, x, m)
	bound := m.n // the word kernels' results are canonical
	if m.kern == kernelIFMA {
		bound = new(big.Int).Lsh(m.n, 1)
	}
	e := m.elems(5)
	xe, ye, z, z1, zz := e[0], e[1], e[2], e[3], e[4]
	check := func(shape string, got elem, want *big.Int) {
		t.Helper()
		v := m.raw(got)
		for _, limb := range got {
			if m.kern == kernelIFMA && uint64(limb) > ifmaMask {
				t.Fatalf("%s, modulus %v, %s: limb %#x is not normalized", b.name, m.n, shape, limb)
			}
		}
		if v.Cmp(bound) >= 0 {
			t.Fatalf("%s, modulus %v, %s: result %v not below %v", b.name, m.n, shape, v, bound)
		}
		res := new(big.Int)
		m.get(res, got)
		if res.Cmp(want) != 0 {
			t.Fatalf("%s, modulus %v, %s: mul(%v, %v) = %v, want %v", b.name, m.n, shape, x, y, res, want)
		}
	}
	xs := []*big.Int{x}
	if m.kern == kernelIFMA {
		xs = append(xs, new(big.Int).Add(x, m.n))
	}
	for _, xv := range xs {
		m.set(xe, xv)
		m.set(ye, y)
		b.mul(t, m, z, xe, ye, sc)
		check("fresh z", z, want)
		copy(z, xe)
		b.mul(t, m, z, z, ye, sc)
		check("z == x", z, want)
		copy(z, ye)
		b.mul(t, m, z, xe, z, sc)
		check("z == y", z, want)
		copy(z, xe)
		b.mul(t, m, z, z, z, sc)
		check("z == x == y", z, wantSq)
		if b.pair {
			m.mul2(z, xe, ye, z1, xe, ye, sc)
			check("lane 0 of a pair on shared operands", z, want)
			check("lane 1 of a pair on shared operands", z1, want)
			copy(zz, xe)
			m.mul2(zz, zz, zz, z1, xe, ye, sc)
			check("lane 0 squaring in place beside a product", zz, wantSq)
			check("lane 1 beside a squaring", z1, want)
		}
	}
}

// redcModuli returns the moduli TestMulRedcMatchesMulMod checks at
// word count k: a random full-width one, one whose top word is short,
// the all-ones modulus and one just above 2^(64(k-1)) (top word exactly
// 1), or n = 1 at k = 1.
func redcModuli(t *testing.T, k int) []*big.Int {
	nbits := k * bits.UintSize
	var moduli []*big.Int
	for _, top := range []int{nbits, nbits - 1 - k%(bits.UintSize-1)} {
		moduli = append(moduli, randomOdd(t, top))
	}
	allOnes := new(big.Int).Sub(new(big.Int).Lsh(bigOne, uint(nbits)), bigOne)
	if k == 1 {
		return append(moduli, allOnes, big.NewInt(1))
	}
	return append(moduli, allOnes, new(big.Int).SetBit(big.NewInt(12345), nbits-bits.UintSize, 1))
}

// randomOdd returns a random odd modulus of exactly nbits bits.
func randomOdd(t testing.TB, nbits int) *big.Int {
	t.Helper()
	n, err := rand.Int(rand.Reader, new(big.Int).Lsh(bigOne, uint(nbits-1)))
	if err != nil {
		t.Fatal(err)
	}
	return n.SetBit(n, nbits-1, 1).SetBit(n, 0, 1)
}

// TestMulRedcMatchesMulMod is the named CI gate of the division-free
// multiplication: on every branch this CPU runs (the portable, ADX and
// IFMA kernels, each alone and in pairs), at every word count from 48
// (3072 bits) down to 1 for the shapes of redcModuli, and at the widest
// and narrowest modulus of every IFMA row count from 1 to ifmaMaxRows,
// for the edge operands (0, 1, n-1, R mod n, so x = y = n-1 among them)
// and random ones, mul equals x*y*R^-1 mod n, stays in its kernel's
// range, tolerates z aliasing its operands, and carries nothing over in
// a scratch reused across moduli of different sizes.
func TestMulRedcMatchesMulMod(t *testing.T) {
	var moduli []*big.Int
	for k := 48; k >= 1; k-- {
		moduli = append(moduli, redcModuli(t, k)...)
	}
	for rows := ifmaMaxRows; rows >= 1; rows-- {
		moduli = append(moduli, randomOdd(t, 52*rows-2))
		if rows > 1 {
			moduli = append(moduli, randomOdd(t, 52*(rows-1)-1))
		}
	}
	forBranches(t, func(t *testing.T, b redcBranch) {
		var sc Scratch // one dirty scratch for every modulus, wide ones first
		for _, n := range moduli {
			if !b.covers(n) {
				continue
			}
			m := newMontOn(n, b.kern)
			ops := []*big.Int{new(big.Int), big.NewInt(1), new(big.Int).Sub(n, bigOne), new(big.Int).Mod(m.r(), n)}
			for i := 0; i < 4; i++ {
				x, err := rand.Int(rand.Reader, n)
				if err != nil {
					t.Fatal(err)
				}
				ops = append(ops, x)
			}
			for _, x := range ops {
				for _, y := range ops {
					checkMulRedc(t, b, m, x, y, &sc)
				}
			}
			// The conversions the tables rest on: into Montgomery form and
			// back out.
			x := ops[len(ops)-1]
			if back := m.value(m.toMont(x, &sc), &sc); back.Cmp(x) != 0 {
				t.Fatalf("%s, modulus %v: REDC(toMont(x)) != x", b.name, n)
			}
		}
	})
}

// TestExpMatchesBigExp holds mont.exp2 to x^e*R mod n from
// big.Int.Exp on every branch, one lane and two, at the word counts of
// the deployed p (8, and 24 at 3072 bits) and odd ones, for the edge
// bases, e = 1, exponents whose windows are zero between nonzero ones,
// and random 160-bit ones.
func TestExpMatchesBigExp(t *testing.T) {
	exps := []*big.Int{big.NewInt(1), big.NewInt(0x10), big.NewInt(0xf00f), new(big.Int).Lsh(big.NewInt(3), 157)}
	for range 6 {
		e, err := rand.Int(rand.Reader, new(big.Int).Lsh(bigOne, dgkSubgroupBits))
		if err != nil {
			t.Fatal(err)
		}
		exps = append(exps, e.SetBit(e, dgkSubgroupBits-1, 1))
	}
	var moduli []*big.Int
	for _, k := range []int{1, 3, 4, 8, 13, 16, 24} {
		moduli = append(moduli, randomOdd(t, k*bits.UintSize))
	}
	forBranches(t, func(t *testing.T, b redcBranch) {
		var sc Scratch
		for _, n := range moduli {
			if !b.covers(n) {
				continue
			}
			m := newMontOn(n, b.kern)
			x, err := rand.Int(rand.Reader, n)
			if err != nil {
				t.Fatal(err)
			}
			bases := []*big.Int{new(big.Int), big.NewInt(1), new(big.Int).Sub(n, bigOne), x}
			for i, x := range bases {
				other := bases[(i+1)%len(bases)] // lane 1's base, when there is one
				for _, e := range exps {
					want := func(x *big.Int) *big.Int {
						w := new(big.Int).Exp(x, e, n)
						return w.Mul(w, m.r()).Mod(w, n)
					}
					es := m.elems(2)
					m.set(es[0], x)
					m.set(es[1], other)
					if b.pair { // z aliases x, as decryptPair has it
						m.exp2(es[0], es[0], es[1], es[1], e, expWindows(e), &sc)
					} else {
						m.exp2(es[0], es[0], nil, nil, e, expWindows(e), &sc)
					}
					got := new(big.Int)
					if m.get(got, es[0]); got.Cmp(want(x)) != 0 {
						t.Fatalf("%s, %d words: exp(%v, %v) = %v, want %v", b.name, m.k, x, e, got, want(x))
					}
					if m.get(got, es[1]); b.pair && got.Cmp(want(other)) != 0 {
						t.Fatalf("%s, %d words: lane 1 exp(%v, %v) = %v, want %v", b.name, m.k, other, e, got, want(other))
					}
				}
			}
		}
	})
}

// onKernel returns a copy of key whose fixed-base tables, randomizer
// pool and decryption tables run on kern.
func onKernel(key *DGKPrivateKey, kern kernel) *DGKPrivateKey {
	on := *key
	m := newMontOn(key.n, kern)
	fb := &dgkFast{m: m, gTab: newFBTable(key.g, m, key.l), hTab: newFBTable(key.h, m, dgkRndBits)}
	fb.once.Do(func() {})
	on.fb = fb
	on.dec = newDGKDecFast(key, newMontOn(key.p, kern))
	return &on
}

// TestPortableBranchMatchesKernel drives every kernel this CPU runs
// through every DGK kernel, so a host with an assembly kernel still
// checks the path every other host runs: for each conformance key, the
// tables and decryption digit rows built on each kernel must stand for
// the key's own group elements entry for entry (each kernel has its own
// R), and the fixed-base chains, c^vp and whole decryptions, one
// ciphertext and two at a time, must give the key's own results.
func TestPortableBranchMatchesKernel(t *testing.T) {
	for _, key := range conformanceKeys(t) {
		fb := key.fb.ensure(key.DGKPublicKey)
		t.Run(fmt.Sprintf("l=%d", key.l), func(t *testing.T) {
			forKernels(t, func(t *testing.T, kern kernel) {
				var sc Scratch
				on := onKernel(key, kern)
				same := func(what string, a *mont, rows [][]elem, ref *mont, want [][]elem) {
					t.Helper()
					if len(rows) != len(want) {
						t.Fatalf("l=%d: %s has %d rows, want %d", key.l, what, len(rows), len(want))
					}
					for i := range rows {
						for d := range rows[i] {
							if a.value(rows[i][d], &sc).Cmp(ref.value(want[i][d], &sc)) != 0 {
								t.Fatalf("l=%d: %s entry (row %d, digit %d) differs", key.l, what, i, d+1)
							}
						}
					}
				}
				same("g table", on.fb.m, on.fb.gTab.win, fb.m, fb.gTab.win)
				same("h table", on.fb.m, on.fb.hTab.win, fb.m, fb.hTab.win)
				for pos, row := range key.dec.inv {
					same("decryption row", on.dec.m, [][]elem{on.dec.inv[pos]}, key.dec.m, [][]elem{row})
				}
				for i := range 20 {
					e, err := key.randomizer()
					if err != nil {
						t.Fatal(err)
					}
					got, want := big.NewInt(int64(i+1)), big.NewInt(int64(i+1))
					on.fb.hTab.mulInto(got, e, &sc)
					fb.hTab.mulInto(want, e, &sc)
					if got.Cmp(want) != 0 {
						t.Fatalf("l=%d: h^%v differs on %s", key.l, e, kernelNames[kern])
					}
					m := uint64(i) * 0x9e3779b97f4a7c15
					c, err := key.Encrypt(m)
					if err != nil {
						t.Fatal(err)
					}
					c2, err := on.Encrypt(m + 1)
					if err != nil {
						t.Fatal(err)
					}
					var ms [2]uint64
					if err := on.DecryptChunk(ms[:], []*Ciphertext{c, c2}, &sc); err != nil {
						t.Fatal(err)
					}
					gotM, ok := on.decryptFast(c, &sc)
					wantM := key.reduce(m).Uint64()
					if !ok || gotM != wantM || ms[0] != wantM || ms[1] != key.reduce(m+1).Uint64() {
						t.Fatalf("l=%d: decryption on %s = %d (ok %v), pair %d, %d; want %d, %d",
							key.l, kernelNames[kern], gotM, ok, ms[0], ms[1], wantM, key.reduce(m+1).Uint64())
					}
				}
			})
		})
	}
}

// FuzzMulRedc drives every branch with arbitrary odd moduli and reduced
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
		x.Mod(x, n)
		y.Mod(y, n)
		for _, b := range redcBranchList {
			if missingFeature(b.kern) == "" && b.covers(n) {
				checkMulRedc(t, b, newMontOn(n, b.kern), x, y, new(Scratch))
			}
		}
	})
}
