package ahe

// Division-free modular multiplication. Every hot product in this
// package has one operand that is fixed per key (a fixed-base table
// entry, a pooled randomizer, a decryption digit row) or lives in a
// chain that never leaves the package (the decryption squarings), so
// that operand can be stored pre-multiplied by R = 2^(k*wordsize) and
// the product reduced with Montgomery's REDC — three big.Int.Mul
// (which reach the assembly addMulVVW) and no long division — instead
// of Mul followed by Mod, whose 2k/k-word division and freshly
// allocated quotient were 70% of a modular multiplication.
//
// Preconditions, all held by construction: the modulus is odd (n = pq
// and p are products of odd primes; the key unmarshalers refuse an even
// n and a p that does not divide it) and both operands are canonical
// residues in [0, n) (Deserialize refuses v >= n, and every value this
// package produces is reduced).

import (
	"math/big"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
)

// mont is the Montgomery context of one odd modulus. Immutable after
// construction and safe for concurrent use; the mutable state of a
// multiplication lives in the caller's Scratch.
type mont struct {
	n    *big.Int // the modulus
	k    int      // words in n; R = 2^(k * bits.UintSize)
	nInv *big.Int // -n^-1 mod R
	one  *big.Int // R mod n: 1 in Montgomery form
	r2   *big.Int // R^2 mod n: mulRedc(x, r2) = x*R mod n
}

func newMont(n *big.Int) *mont {
	if n.Bit(0) == 0 {
		panic("ahe: Montgomery modulus must be odd")
	}
	k := len(n.Bits())
	r := new(big.Int).Lsh(bigOne, uint(k*bits.UintSize))
	nInv := new(big.Int).ModInverse(n, r)
	one := new(big.Int).Mod(r, n)
	r2 := new(big.Int).Mul(one, one)
	return &mont{n: n, k: k, nInv: nInv.Sub(r, nInv), one: one, r2: r2.Mod(r2, n)}
}

// mulRedc sets z = x*y*R^-1 mod n, in [0, n), for x, y in [0, n):
//
//	T = x*y;  q = (T mod R) * nInv mod R;  z = (T + q*n) / R;  z -= n if z >= n
//
// T + q*n is divisible by R by the choice of nInv and below 2nR, so one
// conditional subtraction canonicalizes. "mod R" and "/ R" are SetBits
// views of a product's low and high k words: a view is only ever read,
// and is re-pointed before the temporary it aliases is written again.
// z may alias x and/or y (it is written last, from scratch). Once sc
// has grown to the modulus' size a call allocates nothing.
func (m *mont) mulRedc(z, x, y *big.Int, sc *Scratch) {
	var view big.Int
	t := sc.t.Mul(x, y).Bits()
	q := sc.q.Mul(view.SetBits(t[:min(len(t), m.k)]), m.nInv).Bits()
	sc.u.Mul(view.SetBits(q[:min(len(q), m.k)]), m.n)
	t = sc.t.Add(&sc.t, &sc.u).Bits()
	hi := view.SetBits(t[min(len(t), m.k):])
	if hi.Cmp(m.n) >= 0 {
		z.Sub(hi, m.n)
	} else {
		z.Set(hi)
	}
}

// toMont returns x*R mod n in a fresh big.Int, for x in [0, n).
func (m *mont) toMont(x *big.Int, sc *Scratch) *big.Int {
	z := new(big.Int)
	m.mulRedc(z, x, m.r2, sc)
	return z
}

// powerRows returns, for each Montgomery-form base b, the row
// b^1 .. b^255 in Montgomery form: one 8-bit window's worth of
// multiples, the row shape of the fixed-base tables and of the
// decryption correction rows. The rows are independent, so up to
// GOMAXPROCS goroutines take them from a shared counter, each with its
// own Scratch (inline, with no goroutine, at GOMAXPROCS=1). Every entry
// is a big.Int view into one word slab with room for k+1 words — REDC's
// value before its final subtraction can be that wide, and nat.sub
// sizes its result by it — so no multiplication outgrows its slot and
// a whole build allocates a handful of objects instead of one per
// entry. Each entry is the same canonical residue a serial chain yields.
func (m *mont) powerRows(bases []*big.Int) [][]*big.Int {
	const width = 255
	stride := m.k + 1
	words := make([]big.Word, len(bases)*width*stride)
	ents := make([]big.Int, len(bases)*width)
	ptrs := make([]*big.Int, len(ents))
	for i := range ents {
		ents[i].SetBits(words[i*stride : i*stride : (i+1)*stride])
		ptrs[i] = &ents[i]
	}
	rows := make([][]*big.Int, len(bases))
	for i := range rows {
		rows[i] = ptrs[i*width : (i+1)*width : (i+1)*width]
	}
	var next atomic.Int64
	fill := func() {
		var sc Scratch
		for i := int(next.Add(1) - 1); i < len(rows); i = int(next.Add(1) - 1) {
			row := rows[i]
			row[0].Set(bases[i])
			for d := 1; d < width; d++ {
				m.mulRedc(row[d], row[d-1], row[0], &sc)
			}
		}
	}
	workers := min(runtime.GOMAXPROCS(0), len(rows))
	var wg sync.WaitGroup
	for range workers - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fill()
		}()
	}
	fill()
	wg.Wait()
	return rows
}
