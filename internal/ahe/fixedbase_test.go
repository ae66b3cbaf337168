package ahe

import (
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"shuffledp/internal/rng"
)

// fbTestTable builds a fixed-base table over a fresh 512-bit RSA-shaped
// modulus and a random base, plus the exponent shapes the kernel tests
// share: zero, single-window, top bit, all-ones, an isolated middle
// window, and random full-width draws.
func fbTestTable(t *testing.T, maxBits int) (tab *fbTable, base, mod *big.Int, exps []*big.Int) {
	t.Helper()
	p, err := rand.Prime(rand.Reader, 256)
	if err != nil {
		t.Fatal(err)
	}
	q, err := rand.Prime(rand.Reader, 256)
	if err != nil {
		t.Fatal(err)
	}
	mod = new(big.Int).Mul(p, q)
	if base, err = rand.Int(rand.Reader, mod); err != nil {
		t.Fatal(err)
	}
	exps = []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		big.NewInt(255),
		big.NewInt(256),
		new(big.Int).Lsh(big.NewInt(1), uint(maxBits-1)),
		new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), uint(maxBits)), big.NewInt(1)),
		new(big.Int).Lsh(big.NewInt(0xa5), 128), // isolated middle window
	}
	for i := 0; i < 40; i++ {
		e, err := rand.Int(rand.Reader, new(big.Int).Lsh(big.NewInt(1), uint(maxBits)))
		if err != nil {
			t.Fatal(err)
		}
		exps = append(exps, e)
	}
	return newFBTable(base, newMont(mod), maxBits), base, mod, exps
}

// TestFixedBaseExpMatchesBigExp holds the windowed kernel bit-identical
// to math/big generic exponentiation across exponent shapes: zero,
// single-window, zero-byte-riddled, and full-width.
func TestFixedBaseExpMatchesBigExp(t *testing.T) {
	const maxBits = 400
	tab, base, mod, exps := fbTestTable(t, maxBits)
	var sc Scratch
	for _, e := range exps {
		got := big.NewInt(1)
		tab.mulInto(got, e, &sc)
		want := new(big.Int).Exp(base, e, mod)
		if got.Cmp(want) != 0 {
			t.Fatalf("fixed-base mismatch at e=%v", e)
		}
	}
}

// TestFixedBaseEntriesDecode: the per-key tables hold Montgomery-form
// entries — REDC(ent * 1) is base^(d << 8i) mod n — for sampled rows
// and digits of both tables of the conformance keys.
func TestFixedBaseEntriesDecode(t *testing.T) {
	for _, key := range conformanceKeys(t) {
		fb := key.fb.ensure(key.DGKPublicKey)
		var sc Scratch
		for _, tc := range []struct {
			tab  *fbTable
			base *big.Int
		}{{fb.gTab, key.g}, {fb.hTab, key.h}} {
			rows := len(tc.tab.win)
			for _, i := range []int{0, rows / 2, rows - 1} {
				for _, d := range []int{1, 2, 128, 255} {
					got := new(big.Int)
					fb.m.mulRedc(got, tc.tab.win[i][d-1], bigOne, &sc)
					e := new(big.Int).Lsh(big.NewInt(int64(d)), uint(fbWindowBits*i))
					if want := new(big.Int).Exp(tc.base, e, key.n); got.Cmp(want) != 0 {
						t.Fatalf("l=%d: entry (row %d, digit %d) does not decode to base^(d<<8i)", key.l, i, d)
					}
				}
			}
		}
	}
}

// serialRow is the reference row build: b^1 .. b^255 for a
// Montgomery-form b, each entry a fresh big.Int one multiplication
// after the last.
func serialRow(m *mont, b *big.Int, sc *Scratch) []*big.Int {
	row := make([]*big.Int, 255)
	row[0] = b
	for d := 1; d < len(row); d++ {
		row[d] = new(big.Int)
		m.mulRedc(row[d], row[d-1], b, sc)
	}
	return row
}

// serialChain is the reference table build: every row in order, each
// row's unit read off the previous row's last entry (b^255 * b).
func serialChain(m *mont, base *big.Int, maxBits int) [][]*big.Int {
	var sc Scratch
	rows := make([][]*big.Int, (maxBits+fbWindowBits-1)/fbWindowBits)
	b := m.toMont(new(big.Int).Mod(base, m.n), &sc)
	for i := range rows {
		rows[i] = serialRow(m, b, &sc)
		next := new(big.Int)
		m.mulRedc(next, rows[i][254], b, &sc)
		b = next
	}
	return rows
}

// TestPowerRowsMatchSerialChain is part of the fast-vs-naive race gate:
// the row-parallel build (independent row bases by squaring, rows taken
// from a shared counter, entries in one slab) must yield exactly the
// entries of the serial chain — g table, h table and every decryption
// inverse row — at every worker count, the inline GOMAXPROCS=1 path
// included.
func TestPowerRowsMatchSerialChain(t *testing.T) {
	keys := conformanceKeys(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	sameRows := func(what string, got, want [][]*big.Int) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
		}
		for i := range want {
			for d := range want[i] {
				if got[i][d].Cmp(want[i][d]) != 0 {
					t.Fatalf("%s: entry (row %d, digit %d) differs from the serial chain", what, i, d+1)
				}
			}
		}
	}
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, key := range keys {
			fb := (&dgkFast{}).ensure(key.DGKPublicKey)
			sameRows(fmt.Sprintf("procs=%d l=%d g", procs, key.l), fb.gTab.win, serialChain(fb.m, key.g, key.l))
			sameRows(fmt.Sprintf("procs=%d l=%d h", procs, key.l), fb.hTab.win, serialChain(fb.m, key.h, dgkRndBits))

			df := newDGKDecFast(key)
			var sc Scratch
			for i := 1; i < len(df.exps); i++ {
				for j := 0; j < i; j++ {
					pos := df.exps[i] + dgkDecDigitBits*j
					want := serialRow(df.m, df.m.toMont(key.gammaInvP[pos], &sc), &sc)
					sameRows(fmt.Sprintf("procs=%d l=%d inv[%d]", procs, key.l, pos), [][]*big.Int{df.inv[pos]}, [][]*big.Int{want})
				}
			}
		}
	}
}

// TestKeyPreparationAllocs pins what restoring a private key and
// building its fast-path tables allocates. The ~15,000 table and
// inverse-row entries live in a few slabs, so a 512-bit, l=64 key
// costs about 1,400 objects; one allocation per entry would be about
// 34,400.
func TestKeyPreparationAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime inflates allocation counts; the pins are exact only without -race")
	}
	blob := MarshalDGKPrivateKey(conformanceKeys(t)[0])
	allocs := testing.AllocsPerRun(5, func() {
		k, err := UnmarshalDGKPrivateKey(blob)
		if err != nil {
			t.Fatal(err)
		}
		k.fb.ensure(k.DGKPublicKey)
	})
	if allocs > 2000 {
		t.Fatalf("key preparation allocates %.0f objects, want <= 2000", allocs)
	}
	t.Logf("key preparation: %.0f allocations", allocs)
}

// conformance key shapes: the PEOS production shape (l=64) plus an
// off-width plaintext space exercising the partial final digit of the
// windowed decryption.
var (
	confOnce sync.Once
	confKeys []*DGKPrivateKey
	confErr  error
)

func conformanceKeys(t *testing.T) []*DGKPrivateKey {
	t.Helper()
	confOnce.Do(func() {
		for _, shape := range []struct{ keyBits, l int }{{512, 64}, {448, 13}} {
			k, err := GenerateDGK(shape.keyBits, shape.l)
			if err != nil {
				confErr = err
				return
			}
			confKeys = append(confKeys, k)
		}
	})
	if confErr != nil {
		t.Fatalf("GenerateDGK: %v", confErr)
	}
	return confKeys
}

// The generic math/big reference the kernels are held to: the scheme's
// definition, Enc(m; r) = g^m h^r mod n, computed by big.Int.Exp.

// reduce returns m mod 2^l as a fresh big.Int.
func (k DGKPublicKey) reduce(m uint64) *big.Int { return k.reduceInto(new(big.Int), m) }

// mulExpNaive sets v = v * base^e mod n by generic exponentiation.
func (k DGKPublicKey) mulExpNaive(v, base, e *big.Int) {
	v.Mul(v, new(big.Int).Exp(base, e, k.n)).Mod(v, k.n)
}

// encryptNaive is Encrypt by generic exponentiation.
func (k DGKPublicKey) encryptNaive(m uint64) (*Ciphertext, error) {
	r, err := k.randomizer()
	if err != nil {
		return nil, err
	}
	gm := new(big.Int).Exp(k.g, k.reduce(m), k.n)
	hr := new(big.Int).Exp(k.h, r, k.n)
	return &Ciphertext{v: gm.Mul(gm, hr).Mod(gm, k.n)}, nil
}

// TestFastPathConformance is the named CI gate: the fixed-base /
// windowed kernels must be bit-identical to the generic math/big
// reference — same decryptions for ciphertexts produced by either,
// the same group element from AddPlain, through homomorphic chains,
// rerandomization, and the randomizer pool, across random keys and
// plaintexts.
func TestFastPathConformance(t *testing.T) {
	for _, key := range conformanceKeys(t) {
		mask := uint64(1)<<uint(key.PlaintextBits()) - 1
		if key.PlaintextBits() == 64 {
			mask = ^uint64(0)
		}
		r := rng.New(0xfa57)
		f := func(seed uint16) bool {
			m1 := r.Uint64() & mask
			m2 := r.Uint64() & mask

			// Fast-encrypted ciphertext...
			c1, err := key.Encrypt(m1)
			if err != nil {
				return false
			}
			// ...and a naive-encrypted one.
			c2, err := key.encryptNaive(m2)
			if err != nil {
				return false
			}

			// A homomorphic chain touching every public-key op; the
			// deterministic one, AddPlain, is the reference's group
			// element exactly.
			sum := mulCiphertexts(key.n, c1, c2)
			ref := new(big.Int).Set(sum.v)
			key.mulExpNaive(ref, key.g, key.reduce(uint64(seed)))
			sum, err = key.AddPlain(sum, uint64(seed))
			if err != nil || sum.v.Cmp(ref) != 0 {
				return false
			}
			sum, err = key.Rerandomize(sum)
			if err != nil {
				return false
			}
			want := (m1 + m2 + uint64(seed)) & mask

			// Both decryption paths agree on every ciphertext.
			for _, c := range []*Ciphertext{c1, c2, sum} {
				fast, ok := key.decryptFast(c)
				if !ok {
					return false
				}
				naive, err := key.decryptNaive(c)
				if err != nil || fast != naive {
					return false
				}
			}
			got, err := key.Decrypt(sum)
			return err == nil && got == want
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
			t.Errorf("l=%d: %v", key.PlaintextBits(), err)
		}
	}
}

// TestFastPathConformanceJunkInput: a deserialized value outside
// gamma's subgroup is not fast-decodable; Decrypt must fall back and
// return exactly what the naive reference returns.
func TestFastPathConformanceJunkInput(t *testing.T) {
	key := conformanceKeys(t)[0]
	for i := 0; i < 10; i++ {
		raw := make([]byte, key.CiphertextBytes())
		if _, err := rand.Read(raw); err != nil {
			t.Fatal(err)
		}
		raw[0] = 0 // keep it under the modulus
		c, err := key.Deserialize(raw)
		if err != nil {
			continue // non-unit draws are rejected at the door
		}
		fast, err := key.Decrypt(c)
		if err != nil {
			t.Fatal(err)
		}
		naive, err := key.decryptNaive(c)
		if err != nil {
			t.Fatal(err)
		}
		if fast != naive {
			t.Fatalf("junk input diverged: fast %x naive %x", fast, naive)
		}
	}
}

// TestFastPathConformanceWidestExponents pins the precondition that
// replaced the generic-exponentiation fall-through: the widest exponent
// each kernel is handed fits its table. g's table takes reduceInto's
// output, at most 2^l - 1; h's takes a randomizer, at most
// 2^dgkRndBits - 1. At both, mulInto equals big.Int.Exp on every
// conformance key.
func TestFastPathConformanceWidestExponents(t *testing.T) {
	for _, key := range conformanceKeys(t) {
		fb := key.fb.ensure(key.DGKPublicKey)
		var sc Scratch
		gMax := key.reduceInto(new(big.Int), ^uint64(0))
		if want := new(big.Int).Sub(new(big.Int).Lsh(bigOne, uint(key.l)), bigOne); gMax.Cmp(want) != 0 {
			t.Fatalf("l=%d: reduceInto(2^64-1) = %v, want 2^l-1", key.l, gMax)
		}
		hMax := new(big.Int).Sub(new(big.Int).Lsh(bigOne, dgkRndBits), bigOne)
		for _, tc := range []struct {
			name string
			tab  *fbTable
			base *big.Int
			e    *big.Int
		}{{"g", fb.gTab, key.g, gMax}, {"h", fb.hTab, key.h, hMax}} {
			got := big.NewInt(1)
			tc.tab.mulInto(got, tc.e, &sc)
			if want := new(big.Int).Exp(tc.base, tc.e, key.n); got.Cmp(want) != 0 {
				t.Fatalf("l=%d: %s table at its widest exponent differs from big.Int.Exp", key.l, tc.name)
			}
		}
	}
}

// TestRandomizerPool exercises the pooled path: concurrent encrypts
// and in-place rerandomizes draining the pool while the refillers
// push, the hit/miss accounting, the GOMAXPROCS-derived sizing,
// reference-counted start/stop, and idempotent stop — all under -race
// in CI.
func TestRandomizerPool(t *testing.T) {
	key := conformanceKeys(t)[0]
	if c := poolCapacity(); c < poolSizePerProc || c > maxPoolSize {
		t.Fatalf("poolCapacity() = %d, want %d..%d", c, poolSizePerProc, maxPoolSize)
	}
	if r := poolRefillers(); r < 1 || r > 4 {
		t.Fatalf("poolRefillers() = %d, want 1..4", r)
	}
	hits0, misses0 := key.RandomizerPoolStats()
	stopA := key.StartRandomizerPool()
	stopB := PublicKey(key).StartRandomizerPool() // join via the interface
	defer stopB()
	// Let a refiller run before the workers start: on a loaded host they
	// can otherwise finish every draw inline before one is scheduled,
	// and the hit assertion below would be testing the scheduler.
	for deadline := time.Now().Add(5 * time.Second); key.fb.pool.Load().size.Load() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("a started pool stayed empty for 5 s")
		}
		time.Sleep(time.Millisecond)
	}

	const workers, perWorker = 4, 25
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sc := key.NewScratch()
			for i := 0; i < perWorker; i++ {
				m := uint64(w*100 + i)
				c, err := key.Encrypt(m)
				if err != nil {
					errs[w] = err
					return
				}
				if err := key.RerandomizeInto(c, c, sc); err != nil {
					errs[w] = err
					return
				}
				got, err := key.Decrypt(c)
				if err != nil {
					errs[w] = err
					return
				}
				if got != m {
					errs[w] = errRoundTrip
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	// Every Encrypt and RerandomizeInto draws exactly one randomizer,
	// from the pool (hit) or inline (miss).
	hits1, misses1 := key.RandomizerPoolStats()
	if draws := (hits1 - hits0) + (misses1 - misses0); draws != 2*workers*perWorker {
		t.Fatalf("counters recorded %d randomizer draws, want %d", draws, 2*workers*perWorker)
	}
	if hits1 == hits0 {
		t.Fatal("a running pool served zero hits")
	}
	stopA()
	stopA() // idempotent
	// The pool is refcounted: stopB's pool is still live, encrypts
	// still work, and the final stop tears it down.
	if key.fb.pool.Load() == nil {
		t.Fatal("first stop tore down a pool another starter still holds")
	}
	if _, err := key.Encrypt(7); err != nil {
		t.Fatal(err)
	}
	stopB()
	if key.fb.pool.Load() != nil {
		t.Fatal("last stop left the pool running")
	}
	if _, err := key.Encrypt(7); err != nil { // post-stop: inline path
		t.Fatal(err)
	}
}

var errRoundTrip = errors.New("ahe: pooled round trip mismatch")
