//go:build !amd64

package cpuid

// Off amd64 no assembly kernel runs.
const ADX, IFMA, AVX512DQ = false, false, false
