package ahe

import (
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"
	"runtime"
	"slices"
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
// single-window, zero-byte-riddled, and full-width, on every branch
// this CPU runs — one chain at a time (mulInto), and two in lockstep
// (mul2, the refiller's form) on exponents whose zero bytes differ.
func TestFixedBaseExpMatchesBigExp(t *testing.T) {
	const maxBits = 400
	_, base, mod, exps := fbTestTable(t, maxBits)
	forBranches(t, func(t *testing.T, b redcBranch) {
		var sc Scratch
		tab := newFBTable(base, newMontOn(mod, b.kern), maxBits)
		for i, e := range exps {
			want := new(big.Int).Exp(base, e, mod)
			got := big.NewInt(1)
			if !b.pair {
				if tab.mulInto(got, e, &sc); got.Cmp(want) != 0 {
					t.Fatalf("%s: fixed-base mismatch at e=%v", b.name, e)
				}
				continue
			}
			e1 := exps[(i+1)%len(exps)]
			a := tab.m.elems(2)
			tab.m.set(a[0], bigOne)
			tab.m.set(a[1], bigOne)
			tab.mul2(a[0], a[1], e, e1, &sc)
			got1 := new(big.Int)
			tab.m.get(got, a[0])
			tab.m.get(got1, a[1])
			if got.Cmp(want) != 0 || got1.Cmp(new(big.Int).Exp(base, e1, mod)) != 0 {
				t.Fatalf("%s: fixed-base pair mismatch at e=%v, %v", b.name, e, e1)
			}
		}
	})
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
					got := fb.m.value(tc.tab.win[i][d-1], &sc)
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
// Montgomery-form b, each entry a fresh elem one multiplication after
// the last.
func serialRow(m *mont, b elem, sc *Scratch) []elem {
	row := m.elems(255)
	copy(row[0], b)
	for d := 1; d < len(row); d++ {
		m.mul(row[d], row[d-1], b, sc)
	}
	return row
}

// serialChain is the reference table build: every row in order, each
// row's unit the previous unit squared eight times, as newFBTable
// reaches it. Reading the unit off the previous row's last entry
// (b^255 * b) gives the same residue, but on the IFMA kernel, whose
// values run below 2n, not always the same representative.
func serialChain(m *mont, base *big.Int, maxBits int) [][]elem {
	var sc Scratch
	rows := make([][]elem, (maxBits+fbWindowBits-1)/fbWindowBits)
	b := m.toMont(new(big.Int).Mod(base, m.n), &sc)
	for i := range rows {
		rows[i] = serialRow(m, b, &sc)
		next := m.elems(1)[0]
		copy(next, b)
		for range fbWindowBits {
			m.mul(next, next, next, &sc)
		}
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
	sameRows := func(what string, got, want [][]elem) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
		}
		for i := range want {
			for d := range want[i] {
				if !slices.Equal(got[i][d], want[i][d]) {
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

			df := newDGKDecFast(key, newMont(key.p))
			var sc Scratch
			for i := 1; i < len(df.exps); i++ {
				for j := 0; j < i; j++ {
					pos := df.exps[i] + dgkDecDigitBits*j
					want := serialRow(df.m, df.m.toMont(key.gammaInvP[pos], &sc), &sc)
					sameRows(fmt.Sprintf("procs=%d l=%d inv[%d]", procs, key.l, pos), [][]elem{df.inv[pos]}, [][]elem{want})
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

// randomizer draws r uniform in [0, 2^dgkRndBits), an exponent h's
// table covers, the way rand.Int would.
func (k DGKPublicKey) randomizer() (*big.Int, error) {
	return rand.Int(rand.Reader, new(big.Int).Lsh(bigOne, dgkRndBits))
}

// mulInto multiplies acc, a residue in [0, n), by base^e in place: one
// chain of the table alone, through a fresh elem.
func (t *fbTable) mulInto(acc, e *big.Int, sc *Scratch) {
	a := t.m.elems(1)[0]
	t.m.set(a, acc)
	t.mul2(a, nil, e, nil, sc)
	t.m.get(acc, a)
}

// mulExpNaive sets v = v * base^e mod n by generic exponentiation.
func (k DGKPublicKey) mulExpNaive(v, base, e *big.Int) {
	v.Mul(v, new(big.Int).Exp(base, e, k.n)).Mod(v, k.n)
}

// decryptFast is decryptPair's lane 0 alone: the windowed decryption
// of one ciphertext, without the naive fall-through.
func (k *DGKPrivateKey) decryptFast(c *Ciphertext, sc *Scratch) (uint64, bool) {
	ms, ok := k.decryptPair(c, nil, sc)
	return ms[0], ok[0]
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
				fast, ok := key.decryptFast(c, new(Scratch))
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
// return exactly what the naive reference returns, and so must a chunk
// that pairs it with an honest ciphertext, which still decrypts.
func TestFastPathConformanceJunkInput(t *testing.T) {
	key := conformanceKeys(t)[0]
	honest, err := key.Encrypt(77)
	if err != nil {
		t.Fatal(err)
	}
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
		got := make([]uint64, 3)
		if err := key.DecryptChunk(got, []*Ciphertext{c, honest, c}, key.NewScratch()); err != nil {
			t.Fatal(err)
		}
		if want := []uint64{naive, 77, naive}; !slices.Equal(got, want) {
			t.Fatalf("a chunk with junk in it decrypts %x, want %x", got, want)
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
				cs := []*Ciphertext{c}
				if err := key.FoldChunk(cs, cs, []uint64{0}, true, sc); err != nil {
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
	// Every encryption and every refresh takes exactly one randomizer,
	// from the pool (hit) or inline (miss); a spare counts only when a
	// lane pops it.
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
