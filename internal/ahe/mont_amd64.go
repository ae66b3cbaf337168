package ahe

import "math/big"

// montMulADX is the fused Montgomery multiplication of mont_amd64.s:
// z = x*y*R^-1 mod n over k-word operands, t the k+3-word accumulator
// (from &t[-1]; see the assembly) and n0 = -n^-1 mod 2^64. It runs
// MULX, ADCX and ADOX, so only mont.mulWords calls it, and only where
// hasMontKernel holds.
//
//go:noescape
func montMulADX(z, x, y, n, t *big.Word, k int, n0 big.Word)

// cpuid returns EAX and EBX of CPUID leaf, subleaf sub.
func cpuid(leaf, sub uint32) (eax, ebx uint32)

// hasMontKernel reports whether this CPU has BMI2 (MULX) and ADX
// (ADCX, ADOX): CPUID leaf 7, subleaf 0, EBX bits 8 and 19.
var hasMontKernel = func() bool {
	if maxLeaf, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	_, ebx := cpuid(7, 0)
	return ebx&(1<<8) != 0 && ebx&(1<<19) != 0
}()
