package hash

import (
	"testing"

	"shuffledp/internal/rng"
)

func BenchmarkSum64Uint64(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Sum64Uint64(uint64(i), 0xdeadbeef)
	}
}

func BenchmarkFamilyHash(b *testing.B) {
	fam := NewFamily(705)
	for i := 0; i < b.N; i++ {
		fam.Hash(uint64(i), uint64(i*7))
	}
}

// BenchmarkCountSupport measures the SOLH aggregation kernel: one
// 512-report block (ldp's lhBlock) swept over the domain, in each loop
// order — the register-counted loop at d' = 16 and the key-block sweep
// at d' = 705 over a 64Ki-value domain — and at the three service
// shapes the benchmark contract runs (svc_wire_d64, svc_durable_query_d1024
// and svc_agg_kosarak). Shapes below sweepMinOutputSize run once per
// kernel of the register path (/portable, /avx512 where the CPU has
// it). allocs/op must stay 0 — the kernel is the hash hot path the perf
// trajectory tracks.
func BenchmarkCountSupport(b *testing.B) {
	shapes := []struct {
		name      string
		d, dPrime int
	}{
		{"dprime=16", 1 << 16, 16},
		{"dprime=705", 1 << 16, 705},
		{"svc_wire_d64", 64, 16},
		{"svc_durable_query_d1024", 1024, 64},
		{"svc_agg_kosarak", 42178, 111},
	}
	for _, sh := range shapes {
		run := func(b *testing.B) {
			fam := NewFamily(sh.dPrime)
			const block = 512
			seeds := make([]uint64, block)
			ys := make([]uint64, block)
			r := rng.New(1)
			for i := range seeds {
				seeds[i] = uint64(uint32(r.Uint64()))
				ys[i] = r.Uint64n(uint64(sh.dPrime))
			}
			counts := make([]int, sh.d)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fam.CountSupport(seeds, ys, counts)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(block*sh.d), "ns/hash")
		}
		if sh.dPrime >= sweepMinOutputSize {
			b.Run(sh.name, run)
			continue
		}
		for _, k := range supportKernels {
			b.Run(sh.name+"/"+k.name, func(b *testing.B) {
				if !onKernel(k.avx512, func() { run(b) }) {
					b.Skip("this CPU or its OS lacks AVX512F or AVX512DQ")
				}
			})
		}
	}
}
