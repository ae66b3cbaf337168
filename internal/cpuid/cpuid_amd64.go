package cpuid

// cpuid returns EAX, EBX and ECX of CPUID leaf, subleaf sub.
func cpuid(leaf, sub uint32) (eax, ebx, ecx uint32)

// xgetbv0 returns the low word of XCR0, the state the OS saves.
func xgetbv0() (eax uint32)

// The features, read once. ADX reports BMI2 (MULX) and ADX (ADCX,
// ADOX): CPUID leaf 7, subleaf 0, EBX bits 8 and 19. The AVX-512 ones
// also need an OS that saves the vector state: OSXSAVE (leaf 1, ECX bit
// 27) and XCR0's SSE, AVX, opmask, ZMM_Hi256 and Hi16_ZMM bits (1, 2,
// 5, 6, 7). IFMA reports AVX512F, AVX512_IFMA and AVX512VL (EBX bits
// 16, 21 and 31) and BMI2, which the IFMA kernel also runs; AVX512DQ
// reports AVX512F and AVX512DQ (EBX bits 16 and 17).
var ADX, IFMA, AVX512DQ = func() (adx, ifma, dq bool) {
	if maxLeaf, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false, false, false
	}
	_, ebx, _ := cpuid(7, 0)
	const bmi2, adxBit = 1 << 8, 1 << 19
	const avx512f, avx512dq, avx512ifma, avx512vl = 1 << 16, 1 << 17, 1 << 21, 1 << 31
	adx = ebx&bmi2 != 0 && ebx&adxBit != 0
	const xcr0 = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	if _, _, ecx := cpuid(1, 0); ecx&(1<<27) == 0 || xgetbv0()&xcr0 != xcr0 {
		return adx, false, false
	}
	has := func(bits uint32) bool { return ebx&bits == bits }
	return adx, has(bmi2 | avx512f | avx512ifma | avx512vl), has(avx512f | avx512dq)
}()
