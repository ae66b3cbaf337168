package ahe

import "math/big"

// montMulADX is the fused Montgomery multiplication of mont_amd64.s:
// z = x*y*R^-1 mod n over k-word operands, t the k+3-word accumulator
// (from &t[-1]; see the assembly) and n0 = -n^-1 mod 2^64. It runs
// MULX, ADCX and ADOX, so only mont.mulADX calls it, and only where
// cpuADX holds.
//
//go:noescape
func montMulADX(z, x, y, n, t *big.Word, k int, n0 big.Word)

// The almost-Montgomery multiplications of ifma_amd64.s on 3- and
// 5-block operands, one product or two: z = x*y*2^(-52 rows) mod n,
// below 2n, for x, y < 2n. Only mont.mulIFMA and mont.mulIFMA2 call
// them, and only where cpuIFMA holds.
//
//go:noescape
func montMulIFMA3(z, x, y, n *big.Word, rows int, k0 big.Word)

//go:noescape
func montMulIFMA5(z, x, y, n *big.Word, rows int, k0 big.Word)

//go:noescape
func montMulIFMA3x2(z0, x0, y0, z1, x1, y1, n *big.Word, rows int, k0 big.Word)

//go:noescape
func montMulIFMA5x2(z0, x0, y0, z1, x1, y1, n *big.Word, rows int, k0 big.Word)

// cpuid returns EAX, EBX and ECX of CPUID leaf, subleaf sub.
func cpuid(leaf, sub uint32) (eax, ebx, ecx uint32)

// xgetbv0 returns the low word of XCR0, the state the OS saves.
func xgetbv0() (eax uint32)

// cpuADX reports BMI2 (MULX) and ADX (ADCX, ADOX): CPUID leaf 7,
// subleaf 0, EBX bits 8 and 19. cpuIFMA reports AVX512F, AVX512_IFMA
// and AVX512VL (EBX bits 16, 21 and 31) on an OS that saves their
// state: OSXSAVE (leaf 1, ECX bit 27) and XCR0's SSE, AVX, opmask,
// ZMM_Hi256 and Hi16_ZMM bits (1, 2, 5, 6, 7). The IFMA kernel also
// runs MULX.
var cpuADX, cpuIFMA = func() (adx, ifma bool) {
	if maxLeaf, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false, false
	}
	_, ebx, _ := cpuid(7, 0)
	const bmi2, adxBit = 1 << 8, 1 << 19
	const avx512f, avx512ifma, avx512vl = 1 << 16, 1 << 21, 1 << 31
	adx = ebx&bmi2 != 0 && ebx&adxBit != 0
	if _, _, ecx := cpuid(1, 0); ecx&(1<<27) == 0 || ebx&bmi2 == 0 ||
		ebx&(avx512f|avx512ifma|avx512vl) != avx512f|avx512ifma|avx512vl {
		return adx, false
	}
	const xcr0 = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	return adx, xgetbv0()&xcr0 == xcr0
}()
