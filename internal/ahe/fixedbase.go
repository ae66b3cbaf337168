package ahe

// Fixed-base windowed exponentiation. DGK spends nearly all of its
// time computing g^m and h^r for the two FIXED bases g and h of one
// key — the classic fixed-base comb: precompute, once per key,
//
//	win[i][d-1] = base^(d << (8 i)) * R mod n,   d in 1..255
//
// (one 255-entry row per 8-bit window of the largest supported
// exponent), and multiplying a value by base^e becomes one table lookup
// and one modular multiplication per NONZERO exponent byte — about 58
// for a full Encrypt versus the ~580 Montgomery operations of two
// generic big.Int.Exp calls. Entries are stored in Montgomery form
// (mont.go) while every value they multiply stays an ordinary residue:
// REDC(acc * ent*R) = acc*ent mod n exactly, so a modular
// multiplication is three big.Int.Mul with no division, and nothing
// outside the tables — ciphertexts, wire bytes, the decryption input —
// ever sees the Montgomery domain. Measured at 1024 bits
// (BenchmarkModMul): ~0.2 us per multiplication on the fused kernel and
// ~0.4 us on the portable branch, against ~0.65 us for Mul+Mod, with no
// allocation.
//
// A table is immutable after construction and safe for concurrent
// readers; the per-key tables are built once behind a sync.Once (see
// dgkFast) and shared by every copy of the key struct.

import (
	"math/big"
	"math/bits"
)

// fbWindowBits is the window width. 8 keeps the row count at
// maxBits/8 (50 rows for the 400-bit DGK randomizer — with g's 8
// rows ~2.6 MB per 1024-bit key, built once by powerRows on every
// core: BenchmarkDGKKeyPrepare reads ~2.5 ms on 2 vCPUs on the fused
// kernel, ~4.3 ms on the portable branch; at 3072 bits ~24 ms) while
// cutting a 400-bit exponentiation to at most 50 multiplications. Wider
// windows grow the build cost 16x per +4 bits for <25% fewer
// multiplications.
const fbWindowBits = 8

// fbTable holds the precomputed window rows for one (base, modulus)
// pair, covering exponents in [0, 2^maxBits) for the maxBits it was
// built with.
type fbTable struct {
	m *mont
	// win[i][d-1] = base^(d << (8 i)) * R mod n for d in 1..255.
	win [][]*big.Int
}

// newFBTable precomputes the window rows for exponents in
// [0, 2^maxBits). Row i's unit base^(256^i) is row i-1's by eight
// squarings — 8 multiplications per row more than reading it off the
// previous row's last entry (b^255 * b), bought so the rows do not
// depend on each other and powerRows can fill them on every core. The
// rest is one modular multiplication per table entry.
func newFBTable(base *big.Int, m *mont, maxBits int) *fbTable {
	if maxBits < 1 {
		maxBits = 1
	}
	var sc Scratch
	bases := make([]*big.Int, (maxBits+fbWindowBits-1)/fbWindowBits)
	bases[0] = m.toMont(new(big.Int).Mod(base, m.n), &sc)
	for i := 1; i < len(bases); i++ {
		b := new(big.Int).Set(bases[i-1])
		for range fbWindowBits {
			m.mulRedc(b, b, b, &sc)
		}
		bases[i] = b
	}
	return &fbTable{m: m, win: m.powerRows(bases)}
}

// mulInto multiplies acc, a residue in [0, n), by base^e in place: one
// table entry per nonzero byte of e. e must lie in [0, 2^maxBits) for
// the table's maxBits (a wider one indexes past the last row); the
// callers' exponents do by construction (dgk.go's reduceInto and
// randomizer). The table is only read, so concurrent calls with
// distinct acc and sc are safe.
func (t *fbTable) mulInto(acc, e *big.Int, sc *Scratch) {
	i := 0 // < len(t.win) at every nonzero byte, as e < 2^maxBits
	for _, w := range e.Bits() {
		for s := 0; s < bits.UintSize; s += fbWindowBits {
			if d := byte(w >> uint(s)); d != 0 {
				t.m.mulRedc(acc, acc, t.win[i][d-1], sc)
			}
			i++
		}
	}
}
