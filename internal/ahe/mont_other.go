//go:build !amd64

package ahe

import "math/big"

// hasMontKernel is false off amd64: mulRedc runs its three-Mul REDC.
const hasMontKernel = false

func montMulADX(z, x, y, n, t *big.Word, k int, n0 big.Word) {
	panic("ahe: no fused Montgomery kernel on this architecture")
}
