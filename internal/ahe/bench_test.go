package ahe

import (
	"math/big"
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
// followed by Mod (the long division the fast path no longer runs),
// mulRedc's portable three-Mul REDC, and mulRedc itself — the fused
// kernel where the CPU has ADX and BMI2.
func BenchmarkModMul(b *testing.B) {
	key := benchKey(b)
	n3072 := new(big.Int).Lsh(bigOne, 3071)
	n3072.Add(n3072, big.NewInt(12345))
	for _, c := range []struct {
		name string
		n    *big.Int
	}{{"1024", key.n}, {"512", key.p}, {"3072", n3072}} {
		m := newMont(c.n)
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
		for _, redc := range []struct {
			name string
			mul  func(z, x, y *big.Int, sc *Scratch)
		}{{"portable", m.mulRedcBig}, {"mulRedc", m.mulRedc}} {
			b.Run(c.name+"/"+redc.name, func(b *testing.B) {
				b.ReportAllocs()
				var acc big.Int
				var sc Scratch
				acc.Set(x)
				for i := 0; i < b.N; i++ {
					redc.mul(&acc, &acc, y, &sc)
				}
			})
		}
	}
}
