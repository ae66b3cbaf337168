package hash

import (
	"testing"

	"shuffledp/internal/cpuid"
)

// The register path's two kernels, which tests switch between; nothing
// that ships can: the portable loop (misses3) runs on every host, the
// AVX-512 one (hits8x8) where the CPU has it.
var supportKernels = []struct {
	name   string
	avx512 bool
}{{"portable", false}, {"avx512", true}}

// onKernel runs f with CountSupport's register path on the AVX-512
// kernel or the portable loop, and reports false without running f
// where this CPU lacks the AVX-512 one. The switch is package state, so
// tests that use it do not run in parallel.
func onKernel(avx512 bool, f func()) bool {
	if avx512 && !cpuid.AVX512DQ {
		return false
	}
	defer func(was bool) { supportAVX512 = was }(supportAVX512)
	supportAVX512 = avx512
	f()
	return true
}

// forKernels runs f in one subtest per kernel, and skips the AVX-512
// one where this CPU lacks it.
func forKernels(t *testing.T, f func(t *testing.T)) {
	for _, k := range supportKernels {
		t.Run(k.name, func(t *testing.T) {
			if !onKernel(k.avx512, func() { f(t) }) {
				t.Skip("this CPU or its OS lacks AVX512F or AVX512DQ")
			}
		})
	}
}
