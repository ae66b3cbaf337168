package ldp

import (
	"encoding"
	"strings"
	"testing"
	"testing/quick"

	"shuffledp/internal/rng"
)

func TestWordEncoderGRRRoundTrip(t *testing.T) {
	g := NewGRR(915, 1)
	enc, err := NewWordEncoder(g)
	if err != nil {
		t.Fatal(err)
	}
	if enc.GroupOrder() != 915 {
		t.Fatalf("group order %d", enc.GroupOrder())
	}
	for v := 0; v < 915; v++ {
		w := enc.Encode(Report{Value: v})
		if got := enc.Decode(w); got.Value != v {
			t.Fatalf("roundtrip %d -> %d", v, got.Value)
		}
	}
}

func TestWordEncoderSOLHRoundTrip(t *testing.T) {
	s := NewSOLH(42178, 45, 1)
	enc, err := NewWordEncoder(s)
	if err != nil {
		t.Fatal(err)
	}
	if enc.GroupOrder() != uint64(45)<<32 {
		t.Fatalf("group order %d", enc.GroupOrder())
	}
	f := func(seed uint32, vRaw uint16) bool {
		v := int(vRaw) % 45
		rep := Report{Seed: seed, Value: v}
		got := enc.Decode(enc.Encode(rep))
		return got.Seed == seed && got.Value == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// otherOracle is a FrequencyOracle that is neither GRR nor local
// hashing: the shape of any oracle added later without a word encoding.
type otherOracle struct{ *GRR }

func (otherOracle) Name() string { return "Other" }

// Only GRR and local hashing have word encodings; any other oracle is
// refused by name, so no deployment can put its reports on a wire.
func TestWordEncoderRefusesOtherOracles(t *testing.T) {
	_, err := NewWordEncoder(otherOracle{NewGRR(10, 1)})
	if err == nil || !strings.Contains(err.Error(), "oracle Other ") {
		t.Fatalf("NewWordEncoder(Other) = %v, want a refusal naming the oracle", err)
	}
}

func TestWordEncoderDecodeWraps(t *testing.T) {
	g := NewGRR(10, 1)
	enc, _ := NewWordEncoder(g)
	// A corrupted word beyond the group order must reduce, not panic.
	if got := enc.Decode(25); got.Value != 5 {
		t.Fatalf("Decode(25) = %d, want 5", got.Value)
	}
}

func TestWordEncoderEncodePanicsOutOfRange(t *testing.T) {
	g := NewGRR(10, 1)
	enc, _ := NewWordEncoder(g)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	enc.Encode(Report{Value: 10})
}

func TestUniformWordInRange(t *testing.T) {
	s := NewSOLH(100, 7, 1)
	enc, _ := NewWordEncoder(s)
	r := rng.New(20)
	for i := 0; i < 1000; i++ {
		w := enc.UniformWord(r.Uint64n)
		if w >= enc.GroupOrder() {
			t.Fatalf("uniform word %d >= group order", w)
		}
		rep := enc.Decode(w)
		if rep.Value < 0 || rep.Value >= 7 {
			t.Fatalf("decoded value %d out of range", rep.Value)
		}
	}
}

// wordOracles are the oracles with a word encoding, at group orders
// from one byte to 38 bits.
func wordOracles() []FrequencyOracle {
	return []FrequencyOracle{NewGRR(10, 1), NewGRR(300, 1), NewSOLH(64, 16, 3), NewSOLH(42178, 45, 1), NewOLH(50, 1)}
}

// TestDecodeMatchesReference pins Decode to the reduce-then-divide form
// it replaced, on random words and on words at or above the group
// order.
func TestDecodeMatchesReference(t *testing.T) {
	r := rng.New(21)
	for _, fo := range wordOracles() {
		enc, err := NewWordEncoder(fo)
		if err != nil {
			t.Fatal(err)
		}
		g := enc.GroupOrder()
		ref := func(w uint64) Report {
			w %= g
			if !enc.hashed {
				return Report{Value: int(w)}
			}
			return Report{Seed: uint32(w / enc.outputSize), Value: int(w % enc.outputSize)}
		}
		words := []uint64{0, 1, g - 1, g, g + 1, 2*g - 1, 2 * g, 1 << 63, ^uint64(0)}
		for i := 0; i < 5000; i++ {
			words = append(words, r.Uint64n(g), g+r.Uint64n(g), r.Uint64())
		}
		for _, w := range words {
			if got, want := enc.Decode(w), ref(w); got.Seed != want.Seed || got.Value != want.Value {
				t.Fatalf("%s: Decode(%d) = %+v, reference %+v", fo.Name(), w, got, want)
			}
		}
	}
}

// TestAddWordsMatchesDecodeAdd: folding words in bulk leaves every word
// oracle's aggregator in the state Decode + Add leaves it in, staged
// local-hash blocks included.
func TestAddWordsMatchesDecodeAdd(t *testing.T) {
	r := rng.New(22)
	for _, fo := range wordOracles() {
		enc, err := NewWordEncoder(fo)
		if err != nil {
			t.Fatal(err)
		}
		words := make([]uint64, 3*lhBlock+17)
		for i := range words {
			words[i] = r.Uint64n(enc.GroupOrder())
		}
		got, want := fo.NewAggregator(), fo.NewAggregator()
		for off := 0; off < len(words); off += 100 {
			enc.AddWords(got, words[off:min(off+100, len(words))])
		}
		for _, w := range words {
			want.Add(enc.Decode(w))
		}
		gb, err := got.(encoding.BinaryMarshaler).MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		wb, _ := want.(encoding.BinaryMarshaler).MarshalBinary()
		if string(gb) != string(wb) {
			t.Fatalf("%s: AddWords state differs from Decode + Add", fo.Name())
		}
	}
}
