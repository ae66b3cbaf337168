package hash

import (
	"fmt"
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

// BenchmarkCountSupport measures the SOLH aggregation kernel: one block
// of reports swept over a 64Ki-value domain, in each loop order — the
// register-counted loop at d' = 16 and the key-block sweep at d' = 705.
// allocs/op must stay 0 — the kernel is the hash hot path the perf
// trajectory tracks.
func BenchmarkCountSupport(b *testing.B) {
	for _, dPrime := range []int{16, 705} {
		b.Run(fmt.Sprintf("dprime=%d", dPrime), func(b *testing.B) {
			fam := NewFamily(dPrime)
			const block, d = 512, 1 << 16
			seeds := make([]uint64, block)
			ys := make([]uint64, block)
			r := rng.New(1)
			for i := range seeds {
				seeds[i] = uint64(uint32(r.Uint64()))
				ys[i] = r.Uint64n(uint64(dPrime))
			}
			counts := make([]int, d)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fam.CountSupport(seeds, ys, counts)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(block*d), "ns/hash")
		})
	}
}
