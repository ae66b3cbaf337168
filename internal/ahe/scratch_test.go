package ahe

// Tests for the worker-pool support layer (DESIGN.md §14): the
// scratch-reusing in-place kernels (AddPlainInto, RerandomizeInto), the
// fixed-base accumulate-into kernel under them, and the allocation
// regression pins of the steady-state fold loops. CI runs this file
// under -race (the allocation pins skip there: the race runtime
// inflates the counts).

import (
	"crypto/rand"
	"math/big"
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

// TestScratchOpsMatchAllocatingOps: AddPlainInto / RerandomizeInto —
// including the dst == a in-place form the shuffle loops use — must
// decrypt identically to the allocating AddPlain / Rerandomize, and
// AddPlainInto must give the generic-exponentiation reference's group
// element bit for bit, with one Scratch reused across every call.
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
			// In-place chain: add, then rerandomize, dst aliasing a.
			ref := new(big.Int).Set(c.v)
			key.mulExpNaive(ref, key.g, key.reduce(add))
			if err := key.AddPlainInto(c, c, add, sc); err != nil {
				t.Fatal(err)
			}
			if c.v.Cmp(ref) != 0 {
				t.Fatalf("l=%d: in-place AddPlainInto differs from the reference", key.PlaintextBits())
			}
			if err := key.RerandomizeInto(c, c, sc); err != nil {
				t.Fatal(err)
			}
			got, err := key.Decrypt(c)
			if err != nil {
				t.Fatal(err)
			}
			if want := (m + add) & mask; got != want {
				t.Fatalf("l=%d: in-place chain decrypts %d, want %d", key.PlaintextBits(), got, want)
			}
			// Distinct-destination form, dst starting zero-valued,
			// against the allocating AddPlain.
			var out Ciphertext
			if err := key.AddPlainInto(&out, c, add, sc); err != nil {
				t.Fatal(err)
			}
			alloc, err := key.AddPlain(c, add)
			if err != nil {
				t.Fatal(err)
			}
			if out.v.Cmp(alloc.v) != 0 {
				t.Fatalf("l=%d: fresh-dst AddPlainInto differs from AddPlain", key.PlaintextBits())
			}
			got, err = key.Decrypt(&out)
			if err != nil {
				t.Fatal(err)
			}
			if want := (m + 2*add) & mask; got != want {
				t.Fatalf("l=%d: fresh-dst add decrypts %d, want %d", key.PlaintextBits(), got, want)
			}
		}
	}
}

// TestRerandomizeIntoChangesCiphertext: the in-place rerandomize must
// actually refresh the group element (unlinkability), not just keep the
// plaintext.
func TestRerandomizeIntoChangesCiphertext(t *testing.T) {
	key := conformanceKeys(t)[0]
	c, err := key.Encrypt(42)
	if err != nil {
		t.Fatal(err)
	}
	before := new(big.Int).Set(c.v)
	if err := key.RerandomizeInto(c, c, key.NewScratch()); err != nil {
		t.Fatal(err)
	}
	if before.Cmp(c.v) == 0 {
		t.Fatal("RerandomizeInto left the group element unchanged")
	}
}

// TestCiphertextClone: a clone decrypts identically and is unaffected
// by in-place mutation of the original — the property the cluster's
// fake cache depends on across retried attempts.
func TestCiphertextClone(t *testing.T) {
	key := conformanceKeys(t)[0]
	c, err := key.Encrypt(9)
	if err != nil {
		t.Fatal(err)
	}
	clone := c.Clone()
	if err := key.AddPlainInto(c, c, 5, key.NewScratch()); err != nil {
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

// TestScratchKernelAllocs is the allocation-regression pin of the
// steady-state parallel loops (no background pool runs here —
// AllocsPerRun counts every goroutine's allocations). Two pins:
//
//   - AddPlainInto, the fold-loop kernel (addPlainAll, splitEncrypted
//     stage B): 0 allocs/op. The fixed-base chain multiplies into the
//     ciphertext's own big.Int and every temporary of a mulRedc lives
//     in the warm Scratch, so any reintroduced per-op object — a
//     ciphertext, a quotient, a fresh accumulator — trips it.
//   - RerandomizeInto on its inline fixed-base fallback, the worst
//     case: what crypto/rand's randomizer draw allocates (the bound,
//     the byte buffer, the result — 5 measured) and nothing for the
//     ~50 multiplications behind it. Pinned at <= 8; the pooled path
//     the cluster actually runs (pool hit -> one mulRedc) costs 0.
func TestScratchKernelAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime inflates allocation counts; the pins are exact only without -race")
	}
	key := conformanceKeys(t)[0]
	sc := key.NewScratch()
	c, err := key.Encrypt(1)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the scratch capacities and the lazily-built tables.
	for i := 0; i < 4; i++ {
		if err := key.AddPlainInto(c, c, uint64(i), sc); err != nil {
			t.Fatal(err)
		}
		if err := key.RerandomizeInto(c, c, sc); err != nil {
			t.Fatal(err)
		}
	}
	addAllocs := testing.AllocsPerRun(50, func() {
		if err := key.AddPlainInto(c, c, 3, sc); err != nil {
			t.Fatal(err)
		}
	})
	if addAllocs != 0 {
		t.Fatalf("AddPlainInto allocates %.1f/op, want 0", addAllocs)
	}
	rerAllocs := testing.AllocsPerRun(50, func() {
		if err := key.RerandomizeInto(c, c, sc); err != nil {
			t.Fatal(err)
		}
	})
	if rerAllocs > 8 {
		t.Fatalf("RerandomizeInto fallback allocates %.1f/op, want <= 8", rerAllocs)
	}
}
