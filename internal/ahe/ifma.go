package ahe

import (
	"math/big"
	"math/bits"
)

// The IFMA kernel's number format (mont.go): 52-bit limbs, one per
// 64-bit word, in whole ymm blocks of four. The code compiles on every
// GOARCH, and runs only on amd64.

const ifmaMask = 1<<52 - 1

// toLimbs sets z to the 52-bit limbs of the words x; x must fit z.
func toLimbs(z []big.Word, x []big.Word) {
	for i := range z {
		w, s := 52*i/64, uint(52*i%64)
		var v big.Word
		if w < len(x) {
			v = x[w] >> s
			if s > 12 && w+1 < len(x) {
				v |= x[w+1] << (64 - s)
			}
		}
		z[i] = big.Word(uint64(v) & ifmaMask)
	}
}

// fromLimbs sets the words z to the value of the normalized limbs x,
// which must fit z.
func fromLimbs(z []big.Word, x []big.Word) {
	clear(z)
	for i, v := range x {
		w, s := 52*i/64, uint(52*i%64)
		if w < len(z) {
			z[w] |= v << s
		}
		if s > 12 && w+1 < len(z) {
			z[w+1] |= v >> (64 - s)
		}
	}
}

// canonIFMA reduces x, below 2n, below n in place.
func (m *mont) canonIFMA(x elem) {
	for i := len(x) - 1; i >= 0; i-- {
		if x[i] != m.nw[i] {
			if x[i] < m.nw[i] {
				return
			}
			break
		}
	}
	var borrow big.Word
	for i, v := range x {
		d := v - m.nw[i] - borrow
		borrow = d >> (bits.UintSize - 1)
		x[i] = big.Word(uint64(d) & ifmaMask)
	}
}

// mulIFMA runs the one-product kernel.
func (m *mont) mulIFMA(z, x, y elem) {
	if m.width == 12 {
		montMulIFMA3(&z[0], &x[0], &y[0], &m.nw[0], m.rows, m.n0)
	} else {
		montMulIFMA5(&z[0], &x[0], &y[0], &m.nw[0], m.rows, m.n0)
	}
}

// mulIFMA2 runs the two-product kernel.
func (m *mont) mulIFMA2(z0, x0, y0, z1, x1, y1 elem) {
	if m.width == 12 {
		montMulIFMA3x2(&z0[0], &x0[0], &y0[0], &z1[0], &x1[0], &y1[0], &m.nw[0], m.rows, m.n0)
	} else {
		montMulIFMA5x2(&z0[0], &x0[0], &y0[0], &z1[0], &x1[0], &y1[0], &m.nw[0], m.rows, m.n0)
	}
}
