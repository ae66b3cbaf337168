package ahe_test

import (
	"os"
	"testing"

	"shuffledp/internal/ahe"
	"shuffledp/internal/dataset"
	"shuffledp/internal/ldp"
	"shuffledp/internal/protocol"
	"shuffledp/internal/rng"
)

// BenchmarkPEOSRunPerKernel runs one protocol.PEOS.Run per iteration at
// peos_inproc_r2's shape — GRR over d = 64 at eps_l = 3, 4,000 Zipf(1.1)
// users, r = 2 shufflers with n_r = 200 fakes each, the benchmark's
// 1024-bit key fixture — once per Montgomery kernel this CPU runs, so
// a change to internal/ahe can be read end to end on the kernels the
// host would not pick. It reports users per second as reports/s.
func BenchmarkPEOSRunPerKernel(b *testing.B) {
	blob, err := os.ReadFile("../../benchmark/testdata/dgk1024.key")
	if err != nil {
		b.Fatal(err)
	}
	key, err := ahe.UnmarshalDGKPrivateKey(blob)
	if err != nil {
		b.Fatal(err)
	}
	const n, d, r, nr = 4000, 64, 2, 200
	fo := ldp.NewGRR(d, 3)
	values := dataset.Synthetic("peos_inproc_r2", n, d, 1.1, 1).Values
	for _, kk := range ahe.KernelKeys(key) {
		b.Run(kk.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p, err := protocol.NewPEOS(fo, r, nr, kk.Key, rng.Substream(1, uint64(i)))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := p.Run(values, rng.Substream(2, uint64(i))); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(n*b.N)/b.Elapsed().Seconds(), "reports/s")
		})
	}
}
