package ahe

import (
	"math/big"
	"strings"
	"sync"
	"testing"
)

var (
	benchOnce sync.Once
	benchDGK  *DGKPrivateKey
)

func benchKey(b *testing.B) *DGKPrivateKey {
	b.Helper()
	benchOnce.Do(func() {
		var err error
		if benchDGK, err = GenerateDGK(1024, 64); err != nil {
			panic(err)
		}
	})
	return benchDGK
}

func BenchmarkDGKEncrypt(b *testing.B) {
	key := benchKey(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := key.Encrypt(uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDGKDecrypt(b *testing.B) {
	key := benchKey(b)
	c, err := key.Encrypt(0xdeadbeef)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := key.Decrypt(c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDGKDecryptChunk decrypts a 64-ciphertext chunk per
// iteration on one warm Scratch, as a RevealParallel worker does, and
// reports the cost per ciphertext: the pairs on mont.mul2 that
// BenchmarkDGKDecrypt's one-ciphertext wrapper cannot form.
func BenchmarkDGKDecryptChunk(b *testing.B) {
	key := benchKey(b)
	cs := make([]*Ciphertext, 64)
	for i := range cs {
		var err error
		if cs[i], err = key.Encrypt(uint64(i) * 0x9e3779b97f4a7c15); err != nil {
			b.Fatal(err)
		}
	}
	ms := make([]uint64, len(cs))
	sc := key.NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := key.DecryptChunk(ms, cs, sc); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(cs))/1e3, "us/ct")
}

// BenchmarkDGKEncryptChunk encrypts a 64-ciphertext chunk per
// iteration on one warm Scratch into the same ciphertexts, with no pool
// running, and reports the cost per ciphertext: every lane misses, so
// g^m and h^r both run two lanes at a time on mont.mul2, where
// BenchmarkDGKEncrypt's one-ciphertext wrapper runs its odd lane alone.
func BenchmarkDGKEncryptChunk(b *testing.B) {
	key := benchKey(b)
	cs, ms := make([]*Ciphertext, 64), make([]uint64, 64)
	for i := range ms {
		ms[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	sc := key.NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := key.EncryptChunk(cs, ms, sc); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(cs))/1e3, "us/ct")
}

func BenchmarkDGKAddPlain(b *testing.B) {
	key := benchKey(b)
	c, _ := key.Encrypt(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := key.AddPlain(c, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDGKRerandomize(b *testing.B) {
	key := benchKey(b)
	c, _ := key.Encrypt(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := key.Rerandomize(c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDGKKeyPrepare prices what every PEOS role pays before its
// first operation: restoring the 1024-bit private key (decryption
// inverse rows included) and building the g and h fixed-base tables,
// on GOMAXPROCS workers.
func BenchmarkDGKKeyPrepare(b *testing.B) {
	blob := MarshalDGKPrivateKey(benchKey(b))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k, err := UnmarshalDGKPrivateKey(blob)
		if err != nil {
			b.Fatal(err)
		}
		k.fb.ensure(k.DGKPublicKey)
	}
}

// BenchmarkDGKDeserializeVector decodes a 1024-element vector per
// iteration and reports the cost per element — the number to hold
// against the benchmark's ahe.deserialize_us, which times the
// single-ciphertext Deserialize (one GCD each); per-element is that
// loop.
func BenchmarkDGKDeserializeVector(b *testing.B) {
	const n = 1024
	key := benchKey(b)
	data := honestVector(b, key, n)
	size := key.CiphertextBytes()
	for _, c := range []struct {
		name   string
		decode func() error
	}{
		{"product", func() error { _, err := key.DeserializeVector(data); return err }},
		{"per-element", func() error {
			for i := 0; i < n; i++ {
				if _, err := key.Deserialize(data[i*size : (i+1)*size]); err != nil {
					return err
				}
			}
			return nil
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := c.decode(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n/1e3, "us/elem")
		})
	}
}

// The *Naive benchmarks run the generic math/big reference
// (fixedbase_test.go) and the bit-by-bit decryption — the ablation
// counterpart of the kernel benchmarks above.

func BenchmarkDGKEncryptNaive(b *testing.B) {
	key := benchKey(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := key.encryptNaive(uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDGKDecryptNaive(b *testing.B) {
	key := benchKey(b)
	c, err := key.Encrypt(0xdeadbeef)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := key.decryptNaive(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDGKRerandomizeNaive(b *testing.B) {
	key := benchKey(b)
	c, _ := key.Encrypt(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := key.randomizer()
		if err != nil {
			b.Fatal(err)
		}
		v := new(big.Int).Set(c.v)
		key.mulExpNaive(v, key.h, r)
	}
}

// BenchmarkDGKEncryptPooled measures Encrypt with the background
// randomizer pool keeping randomizers h^r warm — the client/shuffler
// steady state. On a loaded single-core machine it converges to the
// unpooled table path; spare cores turn h^r into a pool pop.
func BenchmarkDGKEncryptPooled(b *testing.B) {
	key := benchKey(b)
	stop := key.StartRandomizerPool()
	defer stop()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := key.Encrypt(uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkModMul prices one modular multiplication at the bench key's
// modulus n, its factor p and a 3072-bit modulus: math/big's Mul
// followed by Mod (the long division the fast path no longer runs), and
// mont.mul on every kernel this CPU runs — the portable three-Mul REDC,
// the fused ADX kernel and the IFMA kernel, the last also as mul2's
// interleaved pair (ns/mul is per product). The IFMA rows stop at its
// ifmaMaxRows limbs. Where newMont picks the 3-block IFMA form (p's 10
// rows), the 5-block form runs the same rows beside it (ifma5,
// ifma5-pair): the measurement that keeps the narrower form.
func BenchmarkModMul(b *testing.B) {
	key := benchKey(b)
	n3072 := new(big.Int).Lsh(bigOne, 3071)
	n3072.Add(n3072, big.NewInt(12345))
	for _, c := range []struct {
		name string
		n    *big.Int
	}{{"1024", key.n}, {"512", key.p}, {"3072", n3072}} {
		x := new(big.Int).Sub(c.n, big.NewInt(12345))
		y := new(big.Int).Rsh(c.n, 1)
		b.Run(c.name+"/MulMod", func(b *testing.B) {
			b.ReportAllocs()
			var acc, tmp big.Int
			acc.Set(x)
			for i := 0; i < b.N; i++ {
				tmp.Mul(&acc, y)
				acc.Mod(&tmp, c.n)
			}
		})
		for _, br := range redcBranchList {
			if missingFeature(br.kern) != "" || !br.covers(c.n) || (br.pair && br.kern != kernelIFMA) {
				continue
			}
			m := newMontOn(c.n, br.kern)
			benchMontMul(b, c.name+"/"+br.name, m, x, y, br.pair)
			if br.kern == kernelIFMA && m.width < 20 {
				name := strings.Replace(br.name, "ifma", "ifma5", 1)
				benchMontMul(b, c.name+"/"+name, widenIFMA(b, m, 20), x, y, br.pair)
			}
		}
	}
}

// benchMontMul times m.mul(x, y), or mul2 on two chains with pair, in
// the sub-benchmark name.
func benchMontMul(b *testing.B, name string, m *mont, x, y *big.Int, pair bool) {
	b.Run(name, func(b *testing.B) {
		b.ReportAllocs()
		e := m.elems(3)
		m.set(e[0], x)
		m.set(e[1], x)
		m.set(e[2], y)
		var sc Scratch
		for i := 0; i < b.N; i++ {
			if pair {
				m.mul2(e[0], e[0], e[2], e[1], e[1], e[2], &sc)
			} else {
				m.mul(e[0], e[0], e[2], &sc)
			}
		}
		muls := b.N
		if pair {
			muls *= 2
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(muls), "ns/mul")
	})
}

// widenIFMA returns a copy of the IFMA context m whose elems are width
// words, so mul runs the kernel form of that width at m's rows, and
// fails tb unless both forms square R^2 alike. The limbs past rows are
// zero, so widening copies the constants.
func widenIFMA(tb testing.TB, m *mont, width int) *mont {
	w := *m
	w.width = width
	e := w.elems(4)
	copy(e[0], m.nw)
	copy(e[1], m.one)
	copy(e[2], m.r2)
	w.nw, w.one, w.r2 = e[0], e[1], e[2]
	var sc Scratch
	var got, want big.Int
	z := m.elems(1)[0]
	m.mul(z, m.r2, m.r2, &sc)
	m.get(&want, z)
	w.mul(e[3], w.r2, w.r2, &sc)
	w.get(&got, e[3])
	if got.Cmp(&want) != 0 {
		tb.Fatalf("%d-word IFMA form squares R^2 to %x, want %x", width, &got, &want)
	}
	return &w
}
