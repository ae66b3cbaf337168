package ahe

// Tests for the worker-pool support layer (DESIGN.md §14): the chunk
// kernels (EncryptChunk, FoldChunk) on every kernel and pool state, the
// fixed-base accumulate-into kernel under them, and the allocation
// regression pins of the steady-state chunk loops. CI runs this file
// under -race (the allocation pins skip there: the race runtime
// inflates the counts).

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"shuffledp/internal/rng"
)

// TestExpIntoMatchesExp holds the accumulate-into form of the
// fixed-base kernel — the only form there is — to its definition,
// acc * base^e mod n, across the same exponent shapes, starting from a
// random residue with the accumulator and the scratch reused (dirty)
// between calls.
func TestExpIntoMatchesExp(t *testing.T) {
	const maxBits = 400
	tab, base, mod, exps := fbTestTable(t, maxBits)
	var acc big.Int // deliberately reused dirty across iterations
	var sc Scratch
	for _, e := range exps {
		start, err := rand.Int(rand.Reader, mod)
		if err != nil {
			t.Fatal(err)
		}
		acc.Set(start)
		tab.mulInto(&acc, e, &sc)
		want := new(big.Int).Exp(base, e, mod)
		if want.Mul(want, start).Mod(want, mod); acc.Cmp(want) != 0 {
			t.Fatalf("mulInto mismatch at e=%v", e)
		}
	}
}

// TestScratchOpsMatchAllocatingOps: FoldChunk — including the
// dst == src in-place form — must decrypt identically to the allocating
// AddPlain / Rerandomize, and a fold without the refresh must give the
// generic-exponentiation reference's group element bit for bit, with
// one Scratch reused across every call.
func TestScratchOpsMatchAllocatingOps(t *testing.T) {
	for _, key := range conformanceKeys(t) {
		mask := uint64(1)<<uint(key.PlaintextBits()) - 1
		if key.PlaintextBits() == 64 {
			mask = ^uint64(0)
		}
		r := rng.New(0x5c7a7c4)
		sc := key.NewScratch()
		for i := 0; i < 16; i++ {
			m := r.Uint64() & mask
			add := r.Uint64() & mask
			c, err := key.Encrypt(m)
			if err != nil {
				t.Fatal(err)
			}
			// In-place chain: add, then rerandomize, dst aliasing src.
			cs := []*Ciphertext{c}
			ref := new(big.Int).Set(c.v)
			key.mulExpNaive(ref, key.g, key.reduce(add))
			if err := key.FoldChunk(cs, cs, []uint64{add}, false, sc); err != nil {
				t.Fatal(err)
			}
			if c.v.Cmp(ref) != 0 {
				t.Fatalf("l=%d: in-place FoldChunk differs from the reference", key.PlaintextBits())
			}
			if err := key.FoldChunk(cs, cs, []uint64{0}, true, sc); err != nil {
				t.Fatal(err)
			}
			got, err := key.Decrypt(c)
			if err != nil {
				t.Fatal(err)
			}
			if want := (m + add) & mask; got != want {
				t.Fatalf("l=%d: in-place chain decrypts %d, want %d", key.PlaintextBits(), got, want)
			}
			// Fresh-destination form, dst nil, against the allocating
			// AddPlain.
			out := []*Ciphertext{nil}
			if err := key.FoldChunk(out, cs, []uint64{add}, false, sc); err != nil {
				t.Fatal(err)
			}
			alloc, err := key.AddPlain(c, add)
			if err != nil {
				t.Fatal(err)
			}
			if out[0].v.Cmp(alloc.v) != 0 {
				t.Fatalf("l=%d: fresh-dst FoldChunk differs from AddPlain", key.PlaintextBits())
			}
			got, err = key.Decrypt(out[0])
			if err != nil {
				t.Fatal(err)
			}
			if want := (m + 2*add) & mask; got != want {
				t.Fatalf("l=%d: fresh-dst add decrypts %d, want %d", key.PlaintextBits(), got, want)
			}
		}
	}
}

// TestFoldChunkRefreshChangesCiphertext: the in-place refresh must
// actually refresh the group element (unlinkability), not just keep the
// plaintext.
func TestFoldChunkRefreshChangesCiphertext(t *testing.T) {
	key := conformanceKeys(t)[0]
	c, err := key.Encrypt(42)
	if err != nil {
		t.Fatal(err)
	}
	before := new(big.Int).Set(c.v)
	cs := []*Ciphertext{c}
	if err := key.FoldChunk(cs, cs, []uint64{0}, true, key.NewScratch()); err != nil {
		t.Fatal(err)
	}
	if before.Cmp(c.v) == 0 {
		t.Fatal("FoldChunk's refresh left the group element unchanged")
	}
}

// TestCiphertextClone: a clone decrypts identically and is unaffected
// by in-place mutation of the original.
func TestCiphertextClone(t *testing.T) {
	key := conformanceKeys(t)[0]
	c, err := key.Encrypt(9)
	if err != nil {
		t.Fatal(err)
	}
	clone := c.Clone()
	cs := []*Ciphertext{c}
	if err := key.FoldChunk(cs, cs, []uint64{5}, false, key.NewScratch()); err != nil {
		t.Fatal(err)
	}
	got, err := key.Decrypt(clone)
	if err != nil {
		t.Fatal(err)
	}
	if got != 9 {
		t.Fatalf("clone decrypts %d after mutating the original, want 9", got)
	}
}

// holdPool installs on key's tables, where no pool runs, a pool of the
// given capacity with no refillers, holding exactly hold fresh
// randomizers — so a test decides which lanes hit — and returns it with
// the function that takes it down again.
func holdPool(t *testing.T, key *DGKPrivateKey, capacity, hold int) (*randPool, func()) {
	t.Helper()
	fb := key.fb.ensure(key.DGKPublicKey)
	p := newRandPool(capacity, 0, nil)
	var sc Scratch
	for i := 0; i < hold; i += 2 {
		hr := fb.fillPair(&sc)
		for _, e := range hr[:min(2, hold-i)] {
			p.push(&hrNode{hr: e})
		}
	}
	if !fb.pool.CompareAndSwap(nil, p) {
		t.Fatal("a randomizer pool is already running on the key")
	}
	return p, func() { fb.pool.CompareAndSwap(p, nil) }
}

// TestChunkConformance holds both chunk methods, on every kernel this
// CPU runs and for chunks of 0 to 7 ciphertexts, to the one-element
// wrappers and to decryption: with the pool stopped (every lane misses;
// misses pair, an odd one runs alone), full (every lane hits) and
// holding exactly one randomizer (the first lane hits, the rest miss,
// and an odd count of misses leaves a spare in the pool), refreshing
// and not, folding in place and into fresh ciphertexts. Every output
// decrypts to src + m (or to m), equals AddPlain's group element
// exactly when it was not refreshed (a lane that lost its h^r still
// decrypts), and every lane is one hit or one miss.
func TestChunkConformance(t *testing.T) {
	for _, key := range conformanceKeys(t) {
		mask := uint64(1)<<uint(key.l) - 1
		if key.l == 64 {
			mask = ^uint64(0)
		}
		t.Run(fmt.Sprintf("l=%d", key.l), func(t *testing.T) {
			forKernels(t, func(t *testing.T, kern kernel) {
				on := onKernel(key, kern)
				sc := on.NewScratch()
				r := rng.New(0xc4c)
				for n := 0; n <= 7; n++ {
					for _, pool := range []string{"stopped", "full", "one"} {
						for _, op := range []string{"encrypt", "fold", "fold+refresh", "fold-in-place", "fold-in-place+refresh"} {
							chunkCase(t, on, sc, r, mask, n, pool, op)
						}
					}
				}
			})
		})
	}
}

func chunkCase(t *testing.T, key *DGKPrivateKey, sc *Scratch, r *rng.Rand, mask uint64, n int, pool, op string) {
	t.Helper()
	what := fmt.Sprintf("%d ciphertexts, pool %s, %s", n, pool, op)
	ms, base := make([]uint64, n), make([]uint64, n)
	src := make([]*Ciphertext, n)
	for i := range ms {
		ms[i], base[i] = r.Uint64(), r.Uint64()&mask
		c, err := key.Encrypt(base[i])
		if err != nil {
			t.Fatal(err)
		}
		src[i] = c
	}
	var p *randPool
	var remove func()
	switch pool {
	case "full":
		p, remove = holdPool(t, key, 8, 8)
	case "one":
		p, remove = holdPool(t, key, 1, 1)
	}
	refresh := op != "fold" && op != "fold-in-place"
	hits0, misses0 := key.RandomizerPoolStats()
	dst := make([]*Ciphertext, n)
	var err error
	switch op {
	case "encrypt":
		clear(base)
		err = key.EncryptChunk(dst, ms, sc)
	case "fold", "fold+refresh":
		err = key.FoldChunk(dst, src, ms, refresh, sc)
	default:
		want := make([]*Ciphertext, n)
		for i, c := range src {
			want[i] = c.Clone()
		}
		dst = src
		err = key.FoldChunk(dst, dst, ms, refresh, sc)
		src = want
	}
	if remove != nil {
		remove()
	}
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	hits, misses := key.RandomizerPoolStats()
	hits, misses = hits-hits0, misses-misses0
	if !refresh {
		n = 0 // no lane draws
	}
	wantHits := map[string]int{"stopped": 0, "full": n, "one": min(n, 1)}[pool]
	if hits != uint64(wantHits) || misses != uint64(n-wantHits) {
		t.Fatalf("%s: %d hits and %d misses, want %d and %d", what, hits, misses, wantHits, n-wantHits)
	}
	if pool == "one" && n > 0 && p.size.Load() != int64(n-1)%2 {
		t.Fatalf("%s: the pool holds %d randomizers after %d misses, want the odd miss's spare only", what, p.size.Load(), n-1)
	}
	for i, c := range dst {
		want := (base[i] + ms[i]) & mask
		if got, err := key.Decrypt(c); err != nil || got != want {
			t.Fatalf("%s: ciphertext %d decrypts %d (%v), want %d", what, i, got, err, want)
		}
		from := &Ciphertext{v: big.NewInt(1)} // g^m is an encryption's fold of 1
		if op != "encrypt" {
			from = src[i]
		}
		folded, err := key.AddPlain(from, ms[i])
		if err != nil {
			t.Fatal(err)
		}
		switch same := folded.v.Cmp(c.v) == 0; {
		case refresh && same:
			t.Fatalf("%s: ciphertext %d equals its unrefreshed fold: its h^r was lost", what, i)
		case !refresh && !same:
			t.Fatalf("%s: ciphertext %d differs from AddPlain's", what, i)
		}
		var one *Ciphertext
		switch {
		case op == "encrypt":
			one, err = key.Encrypt(ms[i])
		case refresh:
			one, err = key.Rerandomize(folded)
		default:
			one = folded
		}
		if got, err2 := key.Decrypt(one); err != nil || err2 != nil || got != want {
			t.Fatalf("%s: the one-element wrapper of ciphertext %d decrypts %d (%v, %v), want %d", what, i, got, err, err2, want)
		}
	}
}

// TestRandomizersNeverRepeat: 4,096 encryptions of 0 in odd-length
// chunks on two workers, beside a small pool whose refiller races the
// spares the misses push, are pairwise distinct — no randomizer, pooled,
// spare or inline, is used twice. Under -race in CI.
func TestRandomizersNeverRepeat(t *testing.T) {
	key := conformanceKeys(t)[0]
	fb := key.fb.ensure(key.DGKPublicKey)
	var filled atomic.Int64
	p := newRandPool(4, 1, func(sc *Scratch) [2]elem {
		filled.Add(2)
		return fb.fillPair(sc)
	})
	if !fb.pool.CompareAndSwap(nil, p) {
		t.Fatal("a randomizer pool is already running on the key")
	}
	hits0, _ := key.RandomizerPoolStats()
	const workers, total = 2, 4096
	out := make([][]*Ciphertext, workers)
	var wg sync.WaitGroup
	for w := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := key.NewScratch()
			for n := 0; n < total/workers; {
				k := min(2*(n%4)+1, total/workers-n) // 1, 3, 5, 7, ...
				cs := make([]*Ciphertext, k)
				if err := key.EncryptChunk(cs, make([]uint64, k), sc); err != nil {
					t.Error(err)
					return
				}
				out[w] = append(out[w], cs...)
				n += k
			}
		}()
	}
	wg.Wait()
	fb.pool.CompareAndSwap(p, nil)
	p.stop()
	seen := make(map[string]bool, total)
	for _, cs := range out {
		for _, c := range cs {
			if seen[c.v.String()] {
				t.Fatal("two encryptions of 0 share a group element: a randomizer was used twice")
			}
			seen[c.v.String()] = true
		}
	}
	if len(seen) != total {
		t.Fatalf("%d encryptions, want %d", len(seen), total)
	}
	hits, _ := key.RandomizerPoolStats()
	if spares := p.size.Load() + int64(hits-hits0) - filled.Load(); spares <= 0 {
		t.Fatalf("no spare reached the pool (%d hits, %d from the refiller)", hits-hits0, filled.Load())
	}
}

// portableDecryptAllocs is what a warm DecryptChunk allocates per
// ciphertext on the portable kernel, where the assembly kernels
// allocate nothing: the portable c^vp is big.Int.Exp (mont.exp2), whose
// power table and nats are its own, because over the portable REDC it
// is faster than the windowed chain (DESIGN.md §12). It reads 20 on a
// 64-bit and on a 32-bit int alike; a count that moves is a regression
// to explain, not a pin to bump.
const portableDecryptAllocs = 20

// TestScratchKernelAllocs is the allocation-regression pin of the
// steady-state fold, on every kernel this CPU runs: FoldChunk of 7 into
// preallocated ciphertexts on a warm Scratch. AllocsPerRun counts every
// goroutine's allocations, so the pools here have no refillers. Four
// pins:
//
//   - without the refresh, 0 allocs: the fixed-base chains run on the
//     Scratch's lane elems and write into each ciphertext's own
//     big.Int, so any reintroduced per-op object — a ciphertext, a
//     quotient, a fresh accumulator — trips it;
//   - refreshed from the pool, 0: a hit is one multiplication;
//   - refreshed with the pool stopped, 0: the misses' exponents come
//     from one crypto/rand read into the Scratch;
//   - a missed lane with its spare, at most 2: the spare's elem and its
//     pool node, which the pool keeps.
func TestScratchKernelAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime inflates allocation counts; the pins are exact only without -race")
	}
	base := conformanceKeys(t)[0]
	forKernels(t, func(t *testing.T, kern kernel) {
		key := onKernel(base, kern)
		sc := key.NewScratch()
		src, dst, ms := make([]*Ciphertext, 7), make([]*Ciphertext, 7), make([]uint64, 7)
		for i := range src {
			var err error
			if src[i], err = key.Encrypt(uint64(i)); err != nil {
				t.Fatal(err)
			}
			ms[i] = uint64(i) * 0x9e3779b97f4a7c15
		}
		fold := func(refresh bool) func() {
			return func() {
				if err := key.FoldChunk(dst, src, ms, refresh, sc); err != nil {
					t.Fatal(err)
				}
			}
		}
		fold(true)() // warm the Scratch, the ciphertexts and the tables
		if allocs := testing.AllocsPerRun(50, fold(false)); allocs != 0 {
			t.Fatalf("FoldChunk without the refresh allocates %.1f/op, want 0", allocs)
		}
		if allocs := testing.AllocsPerRun(50, fold(true)); allocs != 0 {
			t.Fatalf("FoldChunk with the pool stopped allocates %.1f/op, want 0", allocs)
		}
		_, remove := holdPool(t, key, 7*51, 7*51)
		allocs := testing.AllocsPerRun(50, fold(true))
		remove()
		if allocs != 0 {
			t.Fatalf("FoldChunk on pool hits allocates %.1f/op, want 0", allocs)
		}
		p, remove := holdPool(t, key, 1, 0)
		defer remove()
		lone := func() {
			p.head.Store(nil) // empty again: the last run's spare goes
			p.size.Store(0)
			if err := key.FoldChunk(dst[:1], src[:1], ms[:1], true, sc); err != nil {
				t.Fatal(err)
			}
		}
		if allocs := testing.AllocsPerRun(50, lone); allocs > 2 {
			t.Fatalf("a missed lane with its spare allocates %.1f/op, want <= 2", allocs)
		}
	})
}

// TestEncryptChunkAllocs pins encryption's steady state on every
// kernel this CPU runs: EncryptChunk of 7 into fresh ciphertexts on a
// warm Scratch allocates the output ciphertexts and nothing else — 3
// objects each (the Ciphertext, its big.Int and its words) — from the
// pool (hits) and with it stopped (misses, paired, the odd one alone).
func TestEncryptChunkAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime inflates allocation counts; the pins are exact only without -race")
	}
	base := conformanceKeys(t)[0]
	forKernels(t, func(t *testing.T, kern kernel) {
		key := onKernel(base, kern)
		sc := key.NewScratch()
		ms := make([]uint64, 7)
		for i := range ms {
			ms[i] = uint64(i) * 0x9e3779b97f4a7c15
		}
		encrypt := func() {
			if err := key.EncryptChunk(make([]*Ciphertext, len(ms)), ms, sc); err != nil {
				t.Fatal(err)
			}
		}
		outputs := testing.AllocsPerRun(50, func() {
			dst := make([]*Ciphertext, len(ms))
			for i := range dst {
				outAt(dst, i).SetBits(make([]big.Word, len(key.n.Bits())))
			}
		})
		encrypt() // warm the Scratch and the tables
		if allocs := testing.AllocsPerRun(50, encrypt); allocs != outputs {
			t.Fatalf("EncryptChunk with the pool stopped allocates %.1f/op, want %.1f: the outputs only", allocs, outputs)
		}
		_, remove := holdPool(t, key, 7*51, 7*51)
		defer remove()
		if allocs := testing.AllocsPerRun(50, encrypt); allocs != outputs {
			t.Fatalf("EncryptChunk on pool hits allocates %.1f/op, want %.1f: the outputs only", allocs, outputs)
		}
	})
}

// TestDecryptChunkAllocs pins decryption's steady state at the contract
// benchmark's 1024-bit key fixture, on every kernel this CPU runs: once
// a worker's Scratch is warm, a chunk — pairs on mul2, an odd one out
// alone, c mod p, c^vp, the digit chain and the lookups — allocates
// nothing per ciphertext on the assembly kernels, and
// portableDecryptAllocs on the portable one.
func TestDecryptChunkAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime inflates allocation counts; the pins are exact only without -race")
	}
	blob, err := os.ReadFile("../../benchmark/testdata/dgk1024.key")
	if err != nil {
		t.Fatal(err)
	}
	base, err := UnmarshalDGKPrivateKey(blob)
	if err != nil {
		t.Fatal(err)
	}
	forKernels(t, func(t *testing.T, kern kernel) {
		key := onKernel(base, kern)
		cs := make([]*Ciphertext, 7)
		want := make([]uint64, len(cs))
		for i := range cs {
			want[i] = uint64(i) * 0x9e3779b97f4a7c15
			var err error
			if cs[i], err = key.Encrypt(want[i]); err != nil {
				t.Fatal(err)
			}
		}
		sc := key.NewScratch()
		got := make([]uint64, len(cs))
		decrypt := func() {
			if err := key.DecryptChunk(got, cs, sc); err != nil {
				t.Fatal(err)
			}
		}
		decrypt() // warm sc
		if !slices.Equal(got, want) {
			t.Fatalf("DecryptChunk = %#x, want %#x", got, want)
		}
		pin := 0.0
		if kern == kernelPortable {
			pin = portableDecryptAllocs
		}
		if allocs := testing.AllocsPerRun(20, decrypt) / float64(len(cs)); allocs != pin {
			t.Fatalf("DecryptChunk allocates %.2f objects per ciphertext, want %.2f", allocs, pin)
		}
	})
}
