package ahe

import "math/big"

// montMulADX is the fused Montgomery multiplication of mont_amd64.s:
// z = x*y*R^-1 mod n over k-word operands, t the k+3-word accumulator
// (from &t[-1]; see the assembly) and n0 = -n^-1 mod 2^64. It runs
// MULX, ADCX and ADOX, so only mont.mulADX calls it, and only where
// cpuid.ADX holds.
//
//go:noescape
func montMulADX(z, x, y, n, t *big.Word, k int, n0 big.Word)

// The almost-Montgomery multiplications of ifma_amd64.s on 3- and
// 5-block operands, one product or two: z = x*y*2^(-52 rows) mod n,
// below 2n, for x, y < 2n. Only mont.mulIFMA and mont.mulIFMA2 call
// them, and only where cpuid.IFMA holds.
//
//go:noescape
func montMulIFMA3(z, x, y, n *big.Word, rows int, k0 big.Word)

//go:noescape
func montMulIFMA5(z, x, y, n *big.Word, rows int, k0 big.Word)

//go:noescape
func montMulIFMA3x2(z0, x0, y0, z1, x1, y1, n *big.Word, rows int, k0 big.Word)

//go:noescape
func montMulIFMA5x2(z0, x0, y0, z1, x1, y1, n *big.Word, rows int, k0 big.Word)
