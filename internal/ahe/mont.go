package ahe

// Division-free modular multiplication. Every hot product in this
// package has one operand that is fixed per key (a fixed-base table
// entry, a pooled randomizer, a decryption digit row) or lives in a
// chain that never leaves the package (the decryption squarings), so
// that operand can be stored pre-multiplied by R and the product
// reduced with Montgomery's REDC instead of Mul followed by Mod, whose
// 2k/k-word division and freshly allocated quotient were 70% of a
// modular multiplication.
//
// mont has three kernels, chosen per modulus in newMont by what the
// CPU has and no option:
//
//   - IFMA (ifma_amd64.s), on amd64 CPUs with AVX512F, AVX512VL and
//     AVX512_IFMA whose OS saves the opmask, ZMM and YMM state, for
//     moduli of at most ifmaMaxRows 52-bit limbs (1038 bits): an
//     almost-Montgomery multiplication in radix 2^52, R = 2^(52 rows),
//     one product or two interleaved products that share the modulus.
//   - ADX (mont_amd64.s), on amd64 CPUs with ADX and BMI2: one fused
//     CIOS multiplication on 64-bit words, R = 2^(64k).
//   - portable: REDC as three big.Int.Mul (which reach the assembly
//     addMulVVW), R = 2^(64k) on 64-bit hosts.
//
// Every value mont hands out — table entries, pooled randomizers,
// decryption powers and digit rows, chain accumulators — is an elem in
// its kernel's number format, so no multiplication converts anything:
// a big.Int appears only where a chain starts (set) or ends (get). On
// the word kernels an elem is k words of a residue in [0, n); on IFMA
// it is 52-bit limbs, one per word, of a value below 2n that is
// reduced below n only where a chain ends or a value is compared. None
// of the kernels runs in constant time: each ends in a data-dependent
// subtraction (DESIGN.md §12).
//
// Preconditions, all held by construction: the modulus is odd (n = pq
// and p are products of odd primes; the key unmarshalers refuse an even
// n and a p that does not divide it) and every value set into an elem
// is a canonical residue in [0, n) (Deserialize refuses v >= n, and
// every value this package produces is reduced).

import (
	"encoding/binary"
	"math/big"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"shuffledp/internal/cpuid"
)

// kernel names the multiplication a mont runs.
type kernel uint8

const (
	kernelPortable kernel = iota
	kernelADX
	kernelIFMA
)

// ifmaMaxRows is the widest modulus the IFMA kernel covers, in 52-bit
// limbs: five ymm blocks. A 1024-bit n takes 20, its
// 512-bit p 10; a 3072-bit key's 60 and 30 run the ADX kernel.
const ifmaMaxRows = 20

// ifmaRows is the IFMA row count of n: the fewest 52-bit limbs with
// 4n <= R, the headroom that keeps almost-Montgomery results below 2n.
func ifmaRows(n *big.Int) int { return (n.BitLen() + 2 + 51) / 52 }

// hostKernel is the kernel newMont picks for n on this CPU.
func hostKernel(n *big.Int) kernel {
	switch {
	case cpuid.IFMA && ifmaRows(n) <= ifmaMaxRows:
		return kernelIFMA
	case cpuid.ADX:
		return kernelADX
	}
	return kernelPortable
}

// elem is one residue in its mont's number format: width words, least
// significant first.
type elem []big.Word

// mont is the Montgomery context of one odd modulus. Immutable after
// construction and safe for concurrent use; the mutable state of a
// multiplication lives in the caller's Scratch.
type mont struct {
	n    *big.Int // the modulus
	k    int      // words in n
	kern kernel
	// rows is the kernel's digit count: R = 2^(64 rows) on the word
	// kernels (rows = k), R = 2^(52 rows) on IFMA. width is the words
	// of an elem: k, or rows rounded up to whole ymm blocks.
	rows, width int
	nInv        *big.Int // -n^-1 mod R, for the portable kernel
	n0          big.Word // -n^-1 mod 2^64 (ADX) or mod 2^52 (IFMA)
	nw          elem     // n
	one         elem     // R mod n: 1 in Montgomery form
	r2          elem     // R^2 mod n: mul(z, x, r2) = x*R mod n
}

func newMont(n *big.Int) *mont { return newMontOn(n, hostKernel(n)) }

// newMontOn builds n's context on kernel kern, which the CPU must run.
func newMontOn(n *big.Int, kern kernel) *mont {
	if n.Bit(0) == 0 {
		panic("ahe: Montgomery modulus must be odd")
	}
	k := len(n.Bits())
	m := &mont{n: n, k: k, kern: kern, rows: k, width: k}
	rbits := k * bits.UintSize
	if kern == kernelIFMA {
		m.rows = ifmaRows(n)
		// The three-block form up to 12 limbs, five blocks past them:
		// at p's 10 rows the narrower pair is 1.2 times as fast.
		m.width = 12
		if m.rows > 12 {
			m.width = 20
		}
		rbits = 52 * m.rows
	}
	r := new(big.Int).Lsh(bigOne, uint(rbits))
	nInv := new(big.Int).ModInverse(n, r)
	m.nInv = nInv.Sub(r, nInv)
	m.n0 = m.nInv.Bits()[0]
	if kern == kernelIFMA {
		m.n0 = big.Word(m.nInv.Uint64() & ifmaMask)
	}
	one := new(big.Int).Mod(r, n)
	r2 := new(big.Int).Mul(one, one)
	e := m.elems(3)
	m.nw, m.one, m.r2 = e[0], e[1], e[2]
	m.set(m.nw, n)
	m.set(m.one, one)
	m.set(m.r2, r2.Mod(r2, n))
	return m
}

// elems returns count zero elems carved from one slab.
func (m *mont) elems(count int) []elem {
	w := m.width
	slab := make([]big.Word, count*w)
	es := make([]elem, count)
	for i := range es {
		es[i] = slab[i*w : (i+1)*w : (i+1)*w]
	}
	return es
}

// set sets z to x, for x in [0, R).
func (m *mont) set(z elem, x *big.Int) {
	if m.kern != kernelIFMA {
		clear(z[copy(z, x.Bits()):])
		return
	}
	toLimbs(z, x.Bits())
}

// get sets z to the residue x holds, in [0, n), reducing x in place
// (canon). Once z has room for k words it allocates nothing.
func (m *mont) get(z *big.Int, x elem) {
	zw := z.Bits()
	if cap(zw) < m.k {
		zw = make([]big.Word, m.k)
	}
	zw = zw[:m.k]
	if m.kern != kernelIFMA {
		copy(zw, x)
	} else {
		m.canon(x)
		fromLimbs(zw, x)
	}
	z.SetBits(zw)
}

// canon reduces x below n in place: a no-op on the word kernels, whose
// elems are canonical, and at most one subtraction on IFMA.
func (m *mont) canon(x elem) {
	if m.kern == kernelIFMA {
		m.canonIFMA(x)
	}
}

// putKey reduces x in place (canon) and writes its words to key, eight
// bytes each, least significant first: a fixed-width map key for the
// decryption lookups.
func (m *mont) putKey(key []byte, x elem) {
	m.canon(x)
	for i, w := range x {
		binary.LittleEndian.PutUint64(key[8*i:], uint64(w))
	}
}

// mul sets z = x*y*R^-1 mod n (below 2n on IFMA). z may alias x and/or
// y. Once sc has grown to the modulus' size a call allocates nothing.
func (m *mont) mul(z, x, y elem, sc *Scratch) {
	sc.redcs++
	switch m.kern {
	case kernelIFMA:
		m.mulIFMA(z, x, y)
	case kernelADX:
		m.mulADX(z, x, y, sc)
	default:
		m.mulRedcBig(z, x, y, sc)
	}
}

// mul2 runs two independent multiplications, z0 = x0*y0*R^-1 and
// z1 = x1*y1*R^-1: interleaved on IFMA, one after the other elsewhere.
// A nil z1 runs z0's alone, so a chain of one or two lanes is one loop.
// Each z may alias its own lane's operands, and the lanes may share
// operands.
func (m *mont) mul2(z0, x0, y0, z1, x1, y1 elem, sc *Scratch) {
	switch {
	case z1 == nil:
		m.mul(z0, x0, y0, sc)
	case m.kern == kernelIFMA:
		sc.redcs += 2
		m.mulIFMA2(z0, x0, y0, z1, x1, y1)
	default:
		m.mul(z0, x0, y0, sc)
		m.mul(z1, x1, y1, sc)
	}
}

// mulADX runs the fused kernel. Its accumulator is sc.w[:k+3].
func (m *mont) mulADX(z, x, y elem, sc *Scratch) {
	t := grow(&sc.w, m.k+3)
	montMulADX(&z[0], &x[0], &y[0], &m.nw[0], &t[1], m.k, m.n0)
}

// mulRedcBig is the portable kernel, REDC over big.Int:
//
//	T = x*y;  q = (T mod R) * nInv mod R;  z = (T + q*n) / R;  z -= n if z >= n
//
// T + q*n is divisible by R by the choice of nInv and below 2nR, so one
// conditional subtraction canonicalizes. x, y and "mod R" and "/ R" are
// SetBits views of words: a view is only ever read, and is re-pointed
// before the temporary it aliases is written again. z is written last.
func (m *mont) mulRedcBig(z, x, y elem, sc *Scratch) {
	var xv, yv, view big.Int
	t := sc.t.Mul(xv.SetBits(x), yv.SetBits(y)).Bits()
	q := sc.q.Mul(view.SetBits(t[:min(len(t), m.k)]), m.nInv).Bits()
	sc.u.Mul(view.SetBits(q[:min(len(q), m.k)]), m.n)
	t = sc.t.Add(&sc.t, &sc.u).Bits()
	hi := view.SetBits(t[min(len(t), m.k):])
	if hi.Cmp(m.n) >= 0 {
		hi = sc.u.Sub(hi, m.n)
	}
	clear(z[copy(z, hi.Bits()):])
}

// rowEntry is entry d of a power row b^1 .. b^255 (powerRows), and the
// Montgomery one for d = 0: the operand of a lane whose digit is zero.
func (m *mont) rowEntry(row []elem, d byte) elem {
	if d == 0 {
		return m.one
	}
	return row[d-1]
}

// grow returns *buf grown to at least n words.
func grow(buf *[]big.Word, n int) []big.Word {
	if len(*buf) < n {
		*buf = make([]big.Word, n)
	}
	return *buf
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

// exp2 sets z0 = x0^e*R mod n and z1 = x1^e*R mod n — x^e in
// Montgomery form — for x0, x1 ordinary residues and e > 0 with
// windows win = expWindows(e); a nil z1 runs z0's lane alone. On the
// kernels it is a fixed-window exponentiation on mul2: the powers
// x^1..x^15 in Montgomery form, then four squarings and at most one
// multiplication per window — the windows are e's, so both lanes take
// the same steps. The portable kernel keeps big.Int.Exp and converts
// with one multiplication: over the three-Mul REDC the windowed form is
// the slower of the two (DESIGN.md §12). z may alias x.
func (m *mont) exp2(z0, x0, z1, x1 elem, e *big.Int, win []byte, sc *Scratch) {
	if m.kern == kernelPortable {
		for _, l := range [2][2]elem{{z0, x0}, {z1, x1}} {
			if l[0] != nil {
				var xv big.Int
				m.set(l[0], sc.x.Exp(xv.SetBits(l[1]), e, m.n))
				m.mul(l[0], l[0], m.r2, sc)
			}
		}
		return
	}
	w := m.width
	pows := grow(&sc.pows, 2<<expWindowBits*w)
	pow := func(lane int, d byte) elem { // nil for lane 1 when z1 is
		if lane == 1 && z1 == nil {
			return nil
		}
		i := lane<<expWindowBits + int(d)
		return pows[i*w : (i+1)*w]
	}
	m.mul2(pow(0, 1), x0, m.r2, pow(1, 1), x1, m.r2, sc)
	for d := byte(2); d < 1<<expWindowBits; d++ {
		m.mul2(pow(0, d), pow(0, d-1), pow(0, 1), pow(1, d), pow(1, d-1), pow(1, 1), sc)
	}
	copy(z0, pow(0, win[0]))
	copy(z1, pow(1, win[0]))
	for _, d := range win[1:] {
		for range expWindowBits {
			m.mul2(z0, z0, z0, z1, z1, z1, sc)
		}
		if d != 0 {
			m.mul2(z0, z0, pow(0, d), z1, z1, pow(1, d), sc)
		}
	}
}

// toMont returns x*R mod n in a fresh elem, for x in [0, n).
func (m *mont) toMont(x *big.Int, sc *Scratch) elem {
	z := m.elems(1)[0]
	m.set(z, x)
	m.mul(z, z, m.r2, sc)
	return z
}

// powerRows returns, for each Montgomery-form base b, the row
// b^1 .. b^255 in Montgomery form: one 8-bit window's worth of
// multiples, the row shape of the fixed-base tables and of the
// decryption correction rows. The rows are independent, so up to
// GOMAXPROCS goroutines take them two at a time from a shared counter,
// each pair in lockstep on mul2 and each goroutine with its own Scratch
// (inline, with no goroutine, at GOMAXPROCS=1). Every entry is an elem
// of one slab, and the same elem a serial chain yields.
func (m *mont) powerRows(bases []elem) [][]elem {
	const width = 255
	ents := m.elems(len(bases) * width)
	rows := make([][]elem, len(bases))
	for i := range rows {
		rows[i] = ents[i*width : (i+1)*width : (i+1)*width]
	}
	var next atomic.Int64
	fill := func() {
		var sc Scratch
		for i := int(next.Add(2) - 2); i < len(rows); i = int(next.Add(2) - 2) {
			r0, r1 := rows[i], []elem(nil)
			copy(r0[0], bases[i])
			if i+1 < len(rows) {
				r1 = rows[i+1]
				copy(r1[0], bases[i+1])
			}
			for d := 1; d < width; d++ {
				if r1 == nil {
					m.mul(r0[d], r0[d-1], r0[0], &sc)
				} else {
					m.mul2(r0[d], r0[d-1], r0[0], r1[d], r1[d-1], r1[0], &sc)
				}
			}
		}
	}
	workers := min(runtime.GOMAXPROCS(0), (len(rows)+1)/2)
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
