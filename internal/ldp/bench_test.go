package ldp

import (
	"testing"

	"shuffledp/internal/rng"
)

func BenchmarkGRRRandomize(b *testing.B) {
	g := NewGRR(915, 1)
	r := rng.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Randomize(i%915, r)
	}
}

func BenchmarkSOLHRandomize(b *testing.B) {
	s := NewSOLH(42178, 705, 2)
	r := rng.New(2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Randomize(i%42178, r)
	}
}

// The server-side cost the paper quotes under Table II: "our machine
// can evaluate the hash function 1 million times within 0.1 second".
func BenchmarkSOLHServerSupportCount(b *testing.B) {
	const d = 915
	s := NewSOLH(d, 45, 2)
	r := rng.New(5)
	reports := make([]Report, 1000)
	for i := range reports {
		reports[i] = s.Randomize(i%d, r)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SupportCounts(s, reports)
	}
}

func BenchmarkSimulateEstimatesSOLH(b *testing.B) {
	const d, n = 42178, 990002
	s := NewSOLH(d, 705, 2)
	counts := make([]int, d)
	for v := range counts {
		counts[v] = n / d
	}
	r := rng.New(6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SimulateEstimates(s, counts, r)
	}
}

func BenchmarkWordEncodeDecode(b *testing.B) {
	s := NewSOLH(42178, 705, 2)
	enc, err := NewWordEncoder(s)
	if err != nil {
		b.Fatal(err)
	}
	rep := Report{Seed: 12345, Value: 678}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := enc.Encode(rep)
		rep2 := enc.Decode(w)
		if rep2.Value != rep.Value {
			b.Fatal("roundtrip")
		}
	}
}
