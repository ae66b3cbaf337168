package ahe

// Division-free modular multiplication. Every hot product in this
// package has one operand that is fixed per key (a fixed-base table
// entry, a pooled randomizer, a decryption digit row) or lives in a
// chain that never leaves the package (the decryption squarings), so
// that operand can be stored pre-multiplied by R = 2^(k*wordsize) and
// the product reduced with Montgomery's REDC instead of Mul followed by
// Mod, whose 2k/k-word division and freshly allocated quotient were 70%
// of a modular multiplication.
//
// mulRedc has two branches and no option chooses between them. On
// amd64 CPUs with ADX and BMI2 it runs one fused CIOS multiplication in
// assembly (mont_amd64.s) on operands padded to k words in the caller's
// Scratch; everywhere else it runs REDC as three big.Int.Mul (which
// reach the assembly addMulVVW). Both return the same canonical
// residue, and nothing but k-word slices inside this file sees the
// kernel's operands. Neither runs in constant time: both end in a
// data-dependent subtraction (DESIGN.md §12).
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
	// kernel is hasMontKernel: mulRedc and exp run the fused kernel on
	// n's k words nw with n0 = -n^-1 mod 2^64, and r2w is r2 in k words.
	kernel  bool
	nw, r2w []big.Word
	n0      big.Word
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
	m := &mont{n: n, k: k, nInv: nInv.Sub(r, nInv), one: one, r2: r2.Mod(r2, n), kernel: hasMontKernel}
	m.nw = n.Bits()
	m.r2w = padWords(make([]big.Word, k), m.r2)
	m.n0 = m.nInv.Bits()[0]
	return m
}

// mulRedc sets z = x*y*R^-1 mod n, in [0, n), for x, y in [0, n). z
// may alias x and/or y. Once sc and z have grown to the modulus' size
// a call allocates nothing.
func (m *mont) mulRedc(z, x, y *big.Int, sc *Scratch) {
	if !m.kernel {
		m.mulRedcBig(z, x, y, sc)
		return
	}
	k := m.k
	w := sc.words(3*k + 3)
	zw := wordsOf(z, k)
	m.mulWords(zw, padWords(w[k+3:2*k+3], x), padWords(w[2*k+3:3*k+3], y), sc)
	z.SetBits(zw)
}

// mulWords sets z = x*y*R^-1 mod n on the fused kernel, for k-word
// x, y < n; z may alias them. Its accumulator is sc.w[:k+3], which the
// caller has grown and keeps its own operands clear of.
func (m *mont) mulWords(z, x, y []big.Word, sc *Scratch) {
	sc.redcs++
	montMulADX(&z[0], &x[0], &y[0], &m.nw[0], &sc.w[1], m.k, m.n0)
}

// mulRedcBig is mulRedc's portable branch, REDC over big.Int:
//
//	T = x*y;  q = (T mod R) * nInv mod R;  z = (T + q*n) / R;  z -= n if z >= n
//
// T + q*n is divisible by R by the choice of nInv and below 2nR, so one
// conditional subtraction canonicalizes. "mod R" and "/ R" are SetBits
// views of a product's low and high k words: a view is only ever read,
// and is re-pointed before the temporary it aliases is written again.
// z may alias x and/or y (it is written last, from scratch).
func (m *mont) mulRedcBig(z, x, y *big.Int, sc *Scratch) {
	sc.redcs++
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

// padWords returns v's words as exactly len(buf) words: v's own when
// it already has that many, else a zero-padded copy in buf.
func padWords(buf []big.Word, v *big.Int) []big.Word {
	b := v.Bits()
	if len(b) == len(buf) {
		return b
	}
	clear(buf[copy(buf, b):])
	return buf
}

// wordsOf returns k words of z's own backing array, allocating one
// when z has less room; the caller writes them and calls z.SetBits.
func wordsOf(z *big.Int, k int) []big.Word {
	if zw := z.Bits(); cap(zw) >= k {
		return zw[:k]
	}
	return make([]big.Word, k)
}

// expWindowBits is the window width of exp's kernel path: a 4-bit
// window costs a base 14 multiplications for its 15 powers and an
// exponent one multiplication per nonzero window, the fewest of any
// width for the 160-bit DGK exponent vp.
const expWindowBits = 4

// expWindows returns e's expWindowBits-bit windows, most significant
// first, for e > 0: computed once per exponent, read by every exp.
func expWindows(e *big.Int) []byte {
	win := make([]byte, (e.BitLen()+expWindowBits-1)/expWindowBits)
	for i := range win {
		pos := (len(win) - 1 - i) * expWindowBits
		for b := range expWindowBits {
			win[i] |= byte(e.Bit(pos+b)) << b
		}
	}
	return win
}

// exp sets z = x^e*R mod n — x^e in Montgomery form — for x in [0, n)
// and e > 0 with windows win = expWindows(e). On the kernel path it is
// a fixed-window exponentiation: the powers x^1..x^15 in Montgomery
// form, then four squarings and at most one multiplication per window,
// all on k-word slices in sc. The portable path keeps big.Int.Exp and
// converts with one mulRedc: over the three-Mul REDC the windowed form
// is the slower of the two (DESIGN.md §12).
func (m *mont) exp(z, x, e *big.Int, win []byte, sc *Scratch) {
	if !m.kernel {
		z.Exp(x, e, m.n)
		m.mulRedc(z, z, m.r2, sc)
		return
	}
	k := m.k
	w := sc.words((1<<expWindowBits)*k + k + 3)
	pow := func(d byte) []big.Word { return w[k+3+int(d)*k : k+3+int(d+1)*k] }
	acc := pow(0)
	m.mulWords(pow(1), padWords(acc, x), m.r2w, sc)
	for d := byte(2); d < 1<<expWindowBits; d++ {
		m.mulWords(pow(d), pow(d-1), pow(1), sc)
	}
	copy(acc, pow(win[0]))
	for _, d := range win[1:] {
		for range expWindowBits {
			m.mulWords(acc, acc, acc, sc)
		}
		if d != 0 {
			m.mulWords(acc, acc, pow(d), sc)
		}
	}
	zw := wordsOf(z, k)
	copy(zw, acc)
	z.SetBits(zw)
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
