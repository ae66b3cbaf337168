package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAliasUniformCase(t *testing.T) {
	a := NewAlias([]float64{1, 1, 1, 1})
	r := New(40)
	const trials = 100000
	counts := make([]int, 4)
	for i := 0; i < trials; i++ {
		counts[a.Sample(r)]++
	}
	want := float64(trials) / 4
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: %d, want ~%.0f", i, c, want)
		}
	}
}

func TestAliasSkewedCase(t *testing.T) {
	weights := []float64{8, 4, 2, 1, 1}
	a := NewAlias(weights)
	r := New(41)
	const trials = 200000
	counts := make([]int, len(weights))
	for i := 0; i < trials; i++ {
		counts[a.Sample(r)]++
	}
	total := 16.0
	for i, w := range weights {
		want := w / total * trials
		if math.Abs(float64(counts[i])-want) > 6*math.Sqrt(want) {
			t.Errorf("bucket %d: %d, want ~%.0f", i, counts[i], want)
		}
	}
}

func TestAliasZeroWeightNeverSampled(t *testing.T) {
	a := NewAlias([]float64{1, 0, 1})
	r := New(42)
	for i := 0; i < 10000; i++ {
		if a.Sample(r) == 1 {
			t.Fatal("sampled zero-weight index")
		}
	}
}

func TestAliasSingleton(t *testing.T) {
	a := NewAlias([]float64{3.5})
	r := New(43)
	for i := 0; i < 100; i++ {
		if a.Sample(r) != 0 {
			t.Fatal("singleton alias sampled non-zero index")
		}
	}
}

func TestAliasPanics(t *testing.T) {
	for name, weights := range map[string][]float64{
		"empty":    {},
		"negative": {1, -1},
		"allzero":  {0, 0},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			NewAlias(weights)
		})
	}
}

// Property: samples are always in range for random weight vectors.
func TestQuickAliasInRange(t *testing.T) {
	r := New(44)
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		weights := make([]float64, len(raw))
		total := 0.0
		for i, b := range raw {
			weights[i] = float64(b)
			total += weights[i]
		}
		if total == 0 {
			weights[0] = 1
		}
		a := NewAlias(weights)
		for i := 0; i < 32; i++ {
			if v := a.Sample(r); v < 0 || v >= len(weights) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestZipfHeadHeavierThanTail(t *testing.T) {
	z := NewZipf(1000, 1.1)
	r := New(45)
	const trials = 100000
	head, tail := 0, 0
	for i := 0; i < trials; i++ {
		v := z.Sample(r)
		if v < 10 {
			head++
		}
		if v >= 900 {
			tail++
		}
	}
	if head <= tail {
		t.Errorf("Zipf head (%d) not heavier than tail (%d)", head, tail)
	}
	if len(z.alias.prob) != 1000 {
		t.Errorf("Len = %d", len(z.alias.prob))
	}
}

func TestZipfMarginals(t *testing.T) {
	const k = 50
	s := 1.5
	z := NewZipf(k, s)
	r := New(46)
	const trials = 300000
	counts := make([]int, k)
	for i := 0; i < trials; i++ {
		counts[z.Sample(r)]++
	}
	weights := ZipfWeights(k, s)
	total := 0.0
	for _, w := range weights {
		total += w
	}
	for i := 0; i < 5; i++ { // check the head, where counts are large
		want := weights[i] / total * trials
		if math.Abs(float64(counts[i])-want) > 6*math.Sqrt(want) {
			t.Errorf("rank %d: %d, want ~%.0f", i, counts[i], want)
		}
	}
}

func TestZipfPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewZipf(10, 0)
}

func TestZipfWeightsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ZipfWeights(0, 1)
}
