//go:build !amd64

package ahe

import "math/big"

func montMulADX(z, x, y, n, t *big.Word, k int, n0 big.Word) {
	panic("ahe: no fused Montgomery kernel on this architecture")
}

func montMulIFMA3(z, x, y, n *big.Word, rows int, k0 big.Word) {
	panic("ahe: no IFMA kernel on this architecture")
}

func montMulIFMA5(z, x, y, n *big.Word, rows int, k0 big.Word) {
	panic("ahe: no IFMA kernel on this architecture")
}

func montMulIFMA3x2(z0, x0, y0, z1, x1, y1, n *big.Word, rows int, k0 big.Word) {
	panic("ahe: no IFMA kernel on this architecture")
}

func montMulIFMA5x2(z0, x0, y0, z1, x1, y1, n *big.Word, rows int, k0 big.Word) {
	panic("ahe: no IFMA kernel on this architecture")
}
