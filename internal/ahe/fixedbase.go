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
// generic big.Int.Exp calls. Entries are Montgomery-form elems (mont.go)
// while every value they multiply stays an ordinary residue:
// REDC(acc * ent*R) = acc*ent mod n exactly, so a chain is one mont.mul
// per nonzero byte with no division, and nothing outside the package —
// ciphertexts, wire bytes, the decryption input — ever sees the
// Montgomery domain. A multiplication at 1024 bits (BenchmarkModMul)
// costs ~0.13 us on the IFMA kernel, ~0.09 us each when two run
// interleaved, ~0.2 us on the ADX kernel and ~0.4 us on the portable
// one, against ~0.65 us for Mul+Mod, with no allocation. So every chain
// runs beside another (mul2): dgk.go's chunk routine takes two
// ciphertexts' g^m, and two h^r — two lanes' misses, a miss and a
// spare, or the refillers' pair — in lockstep.
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
// rows ~2.7 MB per 1024-bit key, built once by powerRows on every
// core: BenchmarkDGKKeyPrepare reads ~1.3 ms on 2 vCPUs on the IFMA
// kernel, ~2.4 ms on the ADX kernel, ~4.3 ms on the portable one; at
// 3072 bits ~24 ms) while
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
	win [][]elem
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
	bases := m.elems((maxBits + fbWindowBits - 1) / fbWindowBits)
	copy(bases[0], m.toMont(new(big.Int).Mod(base, m.n), &sc))
	for i := 1; i < len(bases); i++ {
		copy(bases[i], bases[i-1])
		for range fbWindowBits {
			m.mul(bases[i], bases[i], bases[i], &sc)
		}
	}
	return &fbTable{m: m, win: m.powerRows(bases)}
}

// mul2 multiplies a0 by base^e0 and a1 by base^e1 in lockstep, one
// mont.mul2 per byte position where either exponent byte is nonzero;
// a zero byte multiplies its lane by one. A nil a1 runs a0's lane
// alone.
func (t *fbTable) mul2(a0, a1 elem, e0, e1 *big.Int, sc *Scratch) {
	w0, w1 := e0.Bits(), []big.Word(nil)
	if e1 != nil {
		w1 = e1.Bits()
	}
	rows := max(len(w0), len(w1)) * (bits.UintSize / fbWindowBits)
	for i := range rows { // < len(t.win) at every nonzero byte, as e < 2^maxBits
		d0, d1 := expByte(w0, i), expByte(w1, i)
		if d0 == 0 && d1 == 0 {
			continue
		}
		t.m.mul2(a0, a0, t.m.rowEntry(t.win[i], d0), a1, a1, t.m.rowEntry(t.win[i], d1), sc)
	}
}

// expByte is byte i of the exponent words w, least significant first.
func expByte(w []big.Word, i int) byte {
	const per = bits.UintSize / fbWindowBits
	if i/per >= len(w) {
		return 0
	}
	return byte(w[i/per] >> (fbWindowBits * (i % per)))
}
