package service

import (
	"bytes"
	"encoding"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"strconv"
	"strings"
	"testing"

	"shuffledp/internal/ecies"
	"shuffledp/internal/ldp"
	"shuffledp/internal/rng"
)

// fuzzOracles is the cross-oracle lineup the codec must be safe for:
// every oracle the service speaks, at word widths of 8 bits (GRR, d ≤
// 256), 9 bits (GRR, d = 300) and 35 bits (SOLH and OLH at d′ = 5).
func fuzzOracles() []ldp.FrequencyOracle {
	return []ldp.FrequencyOracle{
		ldp.NewGRR(13, 1),
		ldp.NewGRR(300, 1),
		ldp.NewSOLH(13, 5, 1),
		ldp.NewOLH(13, 1.5),
	}
}

// narrowInt is why the rows that need the widest word skip where int
// is 32 bits.
const narrowInt = "SOLH at d = 2³¹ needs a 64-bit int"

// widestSOLH is SOLH at d = d′ = 2³¹, whose reports take the widest
// word, 63 bits; false where int is 32 bits. The domain comes from a
// uint64 variable, so the file builds there.
func widestSOLH() (ldp.FrequencyOracle, bool) {
	if strconv.IntSize < 64 {
		return nil, false
	}
	d := uint64(1) << 31
	return ldp.NewSOLH(int(d), int(d), 1), true
}

// FuzzCodec locks in the frame format's safety contract across every
// oracle the service speaks: an arbitrary plaintext either fails
// unpack, with nothing appended, or yields ⌊8L/B⌋ words that (a) the
// oracle's aggregator accepts without panicking — a malformed frame
// must kick its connection, never crash a worker — and (b) pack back to
// the identical bytes (the format is canonical: no two plaintexts
// unpack to the same words, no words re-pack differently than they
// arrived).
func FuzzCodec(f *testing.F) {
	// The lineup plus the widest word, 63 bits (SOLH at d′ = 2³¹).
	oracles := fuzzOracles()
	if wide, ok := widestSOLH(); ok {
		oracles = append(oracles, wide)
	} else {
		f.Log(narrowInt)
	}
	codecs := make([]*Codec, len(oracles))
	for i, fo := range oracles {
		codec, err := NewCodec(fo)
		if err != nil {
			f.Fatal(err)
		}
		codecs[i] = codec
	}
	grr300, solh := codecs[1], codecs[2]
	// Seed with a valid three-report frame per oracle, the shapes each
	// check refuses, and structural edge cases.
	r := rng.New(7)
	for i, fo := range oracles {
		var words []uint64
		for v := 0; v < 3; v++ {
			words = append(words, codecs[i].word.Encode(fo.Randomize(v%fo.Domain(), r)))
		}
		f.Add(codecs[i].PackWords(words...))
	}
	one := solh.PackWords(solh.limit - 1) // one 35-bit word in 5 bytes
	padded := bytes.Clone(one)
	padded[len(padded)-1] |= 0x80 // a nonzero pad bit
	f.Add(padded)
	f.Add(append(bytes.Clone(one), 0)) // one spare trailing byte
	f.Add(solh.PackWords(1, solh.limit, 2))
	f.Add(grr300.PackWords(299, grr300.limit))
	// A version-2 frame: three reports in 5-byte records.
	var v2 []byte
	for v := 0; v < 3; v++ {
		var err error
		if v2, err = solh.AppendMarshal(v2, oracles[2].Randomize(v, r)); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(v2)
	// The second 63-bit word starts at bit 63, so its bits straddle two
	// 64-bit loads.
	if len(codecs) > 4 {
		wide := codecs[4]
		f.Add(wide.PackWords(wide.limit-1, 0x5555_5555_5555_5555, wide.limit-1))
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add(bytes.Repeat([]byte{0x80}, 13))

	f.Fuzz(func(t *testing.T, data []byte) {
		for i, fo := range oracles {
			codec := codecs[i]
			words, err := codec.unpack([]uint64{42}, data)
			if err != nil {
				if len(words) != 1 || words[0] != 42 {
					t.Fatalf("%s: a refused frame changed dst to %v", fo.Name(), words)
				}
				continue // rejected is always fine
			}
			words = words[1:]
			if want := 8 * len(data) / int(codec.bits); len(words) != want {
				t.Fatalf("%s: %d-byte frame unpacked to %d words, want %d", fo.Name(), len(data), len(words), want)
			}
			// Accepted words must be aggregator-safe. The 2³¹-value
			// domain's aggregator would allocate its counts on a large
			// frame, so its words are checked as the reports Add takes.
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Fatalf("%s: the fold panicked on unpacked words %v: %v", fo.Name(), words, p)
					}
				}()
				if fo.Domain() > 1<<16 {
					for _, w := range words {
						if rep := codec.word.Decode(w); !codec.word.Valid(rep) || codec.word.Encode(rep) != w {
							t.Fatalf("%s: word %d decodes to invalid report %+v", fo.Name(), w, rep)
						}
					}
					return
				}
				codec.Fold(fo.NewAggregator(), words)
			}()
			// And canonical: re-packing reproduces the exact frame.
			if out := codec.PackWords(words...); !bytes.Equal(out, data) {
				t.Fatalf("%s: round trip not canonical: in %x, out %x", fo.Name(), data, out)
			}
		}
	})
}

// FuzzSessionFrame throws arbitrary bytes at both ends of the session
// handshake and the batch frame AEAD. The locked-in contract:
//
//   - NewServerSession must never panic on a malformed hello — it
//     either errors or yields a working session.
//   - Session.Open must never panic, and must accept NOTHING but the
//     exact frame the peer sealed: any fuzz input that opens must be
//     byte-identical to the genuine frame (no forgery, no malleability).
//   - A rejected frame must not advance the replay counter: after any
//     number of garbage frames, the genuine next frame still opens and
//     its batch still unpacks to the words the client packed.
func FuzzSessionFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, ecies.HelloSize))
	versioned := make([]byte, ecies.HelloSize)
	versioned[0] = ecies.SessionVersion
	f.Add(versioned)
	f.Add(bytes.Repeat([]byte{0x5a}, ecies.SessionOverhead+8))
	f.Add(bytes.Repeat([]byte{0x01}, ecies.SessionOverhead-1))
	counterOnly := make([]byte, ecies.SessionOverhead+16)
	counterOnly[7] = 1 // claims frame counter 1
	f.Add(counterOnly)
	// A well-formed per-report ECIES ciphertext of one 8-byte word
	// record — what a client that skips the handshake would send — is
	// neither a hello nor a session frame.
	seedKey, err := ecies.GenerateKey()
	if err != nil {
		f.Fatal(err)
	}
	eciesReport, err := ecies.Encrypt(seedKey.Public(), make([]byte, 8))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(eciesReport)

	f.Fuzz(func(t *testing.T, data []byte) {
		key, err := ecies.GenerateKey()
		if err != nil {
			t.Fatal(err)
		}
		client, hello, err := ecies.NewClientSession(key.Public())
		if err != nil {
			t.Fatal(err)
		}
		server, err := ecies.NewServerSession(key, hello)
		if err != nil {
			t.Fatal(err)
		}
		// Arbitrary bytes as a hello: error or working session, no panic.
		if _, err := ecies.NewServerSession(key, data); err == nil && len(data) != ecies.HelloSize {
			t.Fatalf("server session accepted a %d-byte hello, want %d", len(data), ecies.HelloSize)
		}

		fo := ldp.NewSOLH(13, 5, 1)
		codec, err := NewCodec(fo)
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(5)
		var words []uint64
		for v := 0; v < 3; v++ {
			words = append(words, codec.word.Encode(fo.Randomize(v, r)))
		}
		batch := codec.PackWords(words...)
		frame, err := client.Seal(nil, batch)
		if err != nil {
			t.Fatal(err)
		}
		if pt, err := server.Open(nil, data); err == nil {
			if !bytes.Equal(data, frame) {
				t.Fatalf("forged frame of %d bytes opened", len(data))
			}
			if !bytes.Equal(pt, batch) {
				t.Fatal("genuine frame opened to different plaintext")
			}
			return
		}
		// The garbage was rejected; the counter must be untouched so the
		// genuine frame still lands, end to end through the codec.
		pt, err := server.Open(nil, frame)
		if err != nil {
			t.Fatalf("genuine frame refused after rejected garbage: %v", err)
		}
		got, err := codec.unpack(nil, pt)
		if err != nil {
			t.Fatalf("the genuine frame does not unpack: %v", err)
		}
		if !slices.Equal(got, words) {
			t.Fatalf("the genuine frame unpacked to %v, want %v", got, words)
		}
	})
}

// The codec's size contract: every report of one oracle marshals to
// exactly Size() bytes (frames must not leak content through length).
func TestCodecFixedSize(t *testing.T) {
	r := rng.New(11)
	for _, fo := range fuzzOracles() {
		codec, err := NewCodec(fo)
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < fo.Domain(); v++ {
			payload, err := codec.AppendMarshal(nil, fo.Randomize(v, r))
			if err != nil {
				t.Fatalf("%s: %v", fo.Name(), err)
			}
			if len(payload) != codec.Size() {
				t.Fatalf("%s: payload %d bytes, Size() says %d", fo.Name(), len(payload), codec.Size())
			}
		}
	}
}

// A word payload past the oracle's report group must be rejected, not
// silently wrapped into some other user's report.
func TestCodecRejectsNonCanonical(t *testing.T) {
	grr, err := NewCodec(ldp.NewGRR(4, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := grr.Unmarshal([]byte{4}); err == nil {
		t.Fatal("GRR word past the domain accepted")
	}
	if _, err := grr.Unmarshal([]byte{3, 0, 0, 0, 0, 0, 0, 0}); err == nil {
		t.Fatal("GRR word padded to 8 bytes accepted")
	}
}

// The word width contract: a word report takes B = max(8,
// bitlen(GroupOrder−1)) bits in a frame, and its one-report payload
// ⌈B/8⌉ little-endian bytes; the largest valid report round-trips at
// that width, alone and between other words; and the words B admits
// past the group — GroupOrder itself, and 2^B − 1 — are refused, never
// wrapped.
func TestCodecWordWidth(t *testing.T) {
	type row struct {
		fo    ldp.FrequencyOracle
		bits  uint
		width int
	}
	cases := []row{
		{ldp.NewGRR(2, 1), 8, 1},
		{ldp.NewGRR(256, 1), 8, 1},
		{ldp.NewGRR(257, 1), 9, 2},
		{ldp.NewGRR(65536, 1), 16, 2},
		{ldp.NewSOLH(1024, 2, 1), 33, 5},
		{ldp.NewSOLH(1024, 16, 1), 36, 5},
		{ldp.NewSOLH(1024, 64, 1), 38, 5},
		{ldp.NewSOLH(42178, 111, 1), 39, 5},
		{ldp.NewOLH(13, 1.5), 35, 5},
	}
	if wide, ok := widestSOLH(); ok {
		cases = append(cases, row{wide, 63, 8})
	} else {
		t.Log(narrowInt)
	}
	for _, tc := range cases {
		enc, err := ldp.NewWordEncoder(tc.fo)
		if err != nil {
			t.Fatal(err)
		}
		order := enc.GroupOrder()
		name := fmt.Sprintf("%s(d=%d, group %d)", tc.fo.Name(), tc.fo.Domain(), order)
		codec, err := NewCodec(tc.fo)
		if err != nil {
			t.Fatal(err)
		}
		if want := uint(max(8, bits.Len64(order-1))); codec.bits != want || want != tc.bits {
			t.Fatalf("%s: B = %d, formula gives %d, want %d", name, codec.bits, want, tc.bits)
		}
		if want := max(1, (bits.Len64(order-1)+7)/8); codec.Size() != want || want != tc.width {
			t.Fatalf("%s: Size() = %d, formula gives %d, want %d", name, codec.Size(), want, tc.width)
		}
		pack := func(w uint64) []byte {
			return binary.LittleEndian.AppendUint64(nil, w)[:tc.width]
		}

		top := order - 1
		rep := enc.Decode(top)
		payload, err := codec.AppendMarshal(nil, rep)
		if err != nil {
			t.Fatalf("%s: largest report %+v: %v", name, rep, err)
		}
		if !bytes.Equal(payload, pack(top)) || !bytes.Equal(codec.PackWords(top), payload) {
			t.Fatalf("%s: largest report marshals to % x and packs to % x, want % x", name, payload, codec.PackWords(top), pack(top))
		}
		back, err := codec.Unmarshal(payload)
		if err != nil || back.Seed != rep.Seed || back.Value != rep.Value {
			t.Fatalf("%s: largest report round-trips to %+v (%v), want %+v", name, back, err, rep)
		}
		frame := codec.PackWords(top, 0, top, 1, top)
		if want := (5*int(tc.bits) + 7) / 8; len(frame) != want {
			t.Fatalf("%s: five reports pack to %d bytes, want %d", name, len(frame), want)
		}
		if words, err := codec.unpack(nil, frame); err != nil || !slices.Equal(words, []uint64{top, 0, top, 1, top}) {
			t.Fatalf("%s: five reports unpack to %v (%v)", name, words, err)
		}

		if tc.bits == 64 || order < 1<<tc.bits {
			if _, err := codec.unpack(nil, codec.PackWords(0, order)); err == nil {
				t.Fatalf("%s: GroupOrder accepted", name)
			}
		}
		if tc.bits < 64 {
			allOnes := uint64(1)<<tc.bits - 1
			if _, err := codec.unpack(nil, codec.PackWords(allOnes, 0)); (err == nil) != (allOnes == top) {
				t.Fatalf("%s: 2^%d − 1 accepted = %v, want %v", name, tc.bits, err == nil, allOnes == top)
			}
			if _, err := codec.Unmarshal(binary.LittleEndian.AppendUint64(nil, top)); err == nil && tc.width < 8 {
				t.Fatalf("%s: 8-byte padded report accepted", name)
			}
		}
	}
}

// TestFoldRunMatchesPerRecord pins unpack + Codec.Fold to the
// per-report path: over random frames of every codec the service
// speaks, unpacking the packed frame gives back its words and folding
// them leaves the aggregator marshalling to the bytes Add over the
// reports gives. A frame with a word the group refuses mixed in is
// refused whole, naming the word, and nothing of it is appended.
func TestFoldRunMatchesPerRecord(t *testing.T) {
	oracles := []ldp.FrequencyOracle{
		ldp.NewGRR(13, 1),      // 8-bit words, most random words refused
		ldp.NewGRR(300, 1),     // 9-bit words
		ldp.NewSOLH(64, 16, 3), // 36-bit words, the whole 2^36 group valid
		ldp.NewSOLH(1000, 300, 3),
	}
	r := rng.New(36)
	for _, fo := range oracles {
		codec, err := NewCodec(fo)
		if err != nil {
			t.Fatal(err)
		}
		for _, records := range []int{1, 7, 255, 256, 257, 600} {
			for _, badShare := range []float64{0, 0.05, 0.5} {
				want, got := fo.NewAggregator(), fo.NewAggregator()
				words := make([]uint64, records)
				var wantErr string
				for i := range words {
					if r.Bernoulli(badShare) {
						words[i] = r.Uint64() >> (64 - codec.bits)
					} else {
						words[i] = codec.word.Encode(fo.Randomize(r.Intn(fo.Domain()), r))
					}
					if words[i] >= codec.limit {
						if wantErr == "" {
							wantErr = fmt.Sprintf("word report %d outside group order", words[i])
						}
						continue
					}
					want.Add(codec.word.Decode(words[i]))
				}
				name := fmt.Sprintf("%s (%d-bit words), %d records, %.2f random", fo.Name(), codec.bits, records, badShare)
				back, err := codec.unpack(nil, codec.PackWords(words...))
				if wantErr != "" {
					if err == nil || !strings.Contains(err.Error(), wantErr) || len(back) != 0 {
						t.Fatalf("%s: unpack returned %d words and %v, want the first refused word's error: %s", name, len(back), err, wantErr)
					}
					continue
				}
				if err != nil || !slices.Equal(back, words) {
					t.Fatalf("%s: the packed frame unpacks to %d words (%v)", name, len(back), err)
				}
				codec.Fold(got, back)
				wb, err := want.(encoding.BinaryMarshaler).MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				gb, err := got.(encoding.BinaryMarshaler).MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(gb, wb) {
					t.Fatalf("%s: folded state differs from per-report Add", name)
				}
			}
		}
	}
}
