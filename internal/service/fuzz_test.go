package service

import (
	"bytes"
	"encoding"
	"encoding/binary"
	"fmt"
	"math/bits"
	"testing"

	"shuffledp/internal/ecies"
	"shuffledp/internal/ldp"
	"shuffledp/internal/rng"
)

// fuzzOracles is the cross-oracle lineup the codec must be safe for:
// every oracle the service speaks — GRR in 1-byte words, SOLH and OLH
// in 5-byte words.
func fuzzOracles() []ldp.FrequencyOracle {
	return []ldp.FrequencyOracle{
		ldp.NewGRR(13, 1),
		ldp.NewSOLH(13, 5, 1),
		ldp.NewOLH(13, 1.5),
	}
}

// FuzzCodec locks in the codec's safety contract across every oracle the
// service speaks: an arbitrary payload either fails Unmarshal or yields
// a report that (a) the oracle's aggregator accepts without panicking — a corrupt
// report must flag the run, never crash a worker — and (b) marshals
// back to the identical bytes (the encoding is canonical: no two
// payloads decode to the same report, no report re-encodes
// differently than it arrived).
func FuzzCodec(f *testing.F) {
	// Seed with one valid report per oracle, each oracle's largest word
	// and first word past its group, plus structural edge cases.
	r := rng.New(7)
	for _, fo := range fuzzOracles() {
		codec, err := NewCodec(fo)
		if err != nil {
			f.Fatal(err)
		}
		payload, err := codec.AppendMarshal(nil, fo.Randomize(3, r))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	for _, fo := range fuzzOracles() {
		enc, err := ldp.NewWordEncoder(fo)
		if err != nil {
			f.Fatal(err)
		}
		width := max(1, (bits.Len64(enc.GroupOrder()-1)+7)/8)
		for _, w := range []uint64{enc.GroupOrder() - 1, enc.GroupOrder()} {
			f.Add(binary.LittleEndian.AppendUint64(nil, w)[:width])
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add(bytes.Repeat([]byte{0x80}, 13))

	oracles := fuzzOracles()
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, fo := range oracles {
			codec, err := NewCodec(fo)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := codec.Unmarshal(data)
			if err != nil {
				continue // rejected is always fine
			}
			// Accepted reports must be aggregator-safe.
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Fatalf("%s: Add panicked on unmarshaled report %+v: %v", fo.Name(), rep, p)
					}
				}()
				fo.NewAggregator().Add(rep)
			}()
			// And canonical: re-marshal reproduces the exact payload.
			out, err := codec.AppendMarshal(nil, rep)
			if err != nil {
				t.Fatalf("%s: Marshal of unmarshaled report failed: %v", fo.Name(), err)
			}
			if !bytes.Equal(out, data) {
				t.Fatalf("%s: round trip not canonical: in %x, out %x", fo.Name(), data, out)
			}
			again, err := codec.Unmarshal(out)
			if err != nil {
				t.Fatalf("%s: re-unmarshal failed: %v", fo.Name(), err)
			}
			if again.Seed != rep.Seed || again.Value != rep.Value {
				t.Fatalf("%s: reports differ across round trips: %+v vs %+v", fo.Name(), rep, again)
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
//     its batch still splits into valid codec records.
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
		var batch []byte
		for v := 0; v < 3; v++ {
			if batch, err = codec.AppendMarshal(batch, fo.Randomize(v, r)); err != nil {
				t.Fatal(err)
			}
		}
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
		if len(pt)%codec.Size() != 0 {
			t.Fatalf("batch of %d bytes is not whole %d-byte records", len(pt), codec.Size())
		}
		for off := 0; off < len(pt); off += codec.Size() {
			if _, err := codec.Unmarshal(pt[off : off+codec.Size()]); err != nil {
				t.Fatalf("batch record %d does not decode: %v", off/codec.Size(), err)
			}
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

// The word width contract: a word report takes max(1,
// ⌈bitlen(GroupOrder−1)/8⌉) little-endian bytes, the largest valid
// report round-trips byte for byte at that width, and the words the
// width admits past the group — GroupOrder itself, and 256^width − 1 —
// are refused, never wrapped.
func TestCodecWordWidth(t *testing.T) {
	cases := []struct {
		fo    ldp.FrequencyOracle
		width int
	}{
		{ldp.NewGRR(2, 1), 1},
		{ldp.NewGRR(256, 1), 1},
		{ldp.NewGRR(257, 1), 2},
		{ldp.NewGRR(65536, 1), 2},
		{ldp.NewSOLH(1024, 2, 1), 5},
		{ldp.NewSOLH(1024, 16, 1), 5},
		{ldp.NewSOLH(1024, 64, 1), 5},
		{ldp.NewSOLH(42178, 111, 1), 5},
		{ldp.NewSOLH(1<<31, 1<<31, 1), 8},
		{ldp.NewOLH(13, 1.5), 5},
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
		if !bytes.Equal(payload, pack(top)) {
			t.Fatalf("%s: largest report marshals to % x, want % x", name, payload, pack(top))
		}
		back, err := codec.Unmarshal(payload)
		if err != nil || back.Seed != rep.Seed || back.Value != rep.Value {
			t.Fatalf("%s: largest report round-trips to %+v (%v), want %+v", name, back, err, rep)
		}

		if tc.width == 8 || order < 1<<(8*tc.width) {
			if _, err := codec.Unmarshal(pack(order)); err == nil {
				t.Fatalf("%s: GroupOrder accepted", name)
			}
		}
		if tc.width < 8 {
			allOnes := uint64(1)<<(8*tc.width) - 1
			if _, err := codec.Unmarshal(pack(allOnes)); (err == nil) != (allOnes == top) {
				t.Fatalf("%s: 256^%d − 1 accepted = %v, want %v", name, tc.width, err == nil, allOnes == top)
			}
			if _, err := codec.Unmarshal(binary.LittleEndian.AppendUint64(nil, top)); err == nil {
				t.Fatalf("%s: 8-byte padded report accepted", name)
			}
		}
	}
}

// TestFoldRunMatchesPerRecord pins Codec.Fold to the per-record path it
// replaced: over random runs with refused records mixed in, for every
// codec the service speaks, the folded aggregator marshals to the bytes
// Unmarshal + Add over the valid records gives, and Fold returns the
// first refused record's Unmarshal error.
func TestFoldRunMatchesPerRecord(t *testing.T) {
	oracles := []ldp.FrequencyOracle{
		ldp.NewGRR(13, 1),      // 1-byte words, most random bytes refused
		ldp.NewGRR(300, 1),     // 2-byte words
		ldp.NewSOLH(64, 16, 3), // 5-byte words
		ldp.NewSOLH(1000, 300, 3),
	}
	r := rng.New(36)
	for _, fo := range oracles {
		codec, err := NewCodec(fo)
		if err != nil {
			t.Fatal(err)
		}
		size := codec.Size()
		for _, records := range []int{0, 1, 7, 255, 256, 257, 600} {
			for _, badShare := range []float64{0, 0.05, 0.5} {
				var run []byte
				for i := 0; i < records; i++ {
					if r.Bernoulli(badShare) {
						for k := 0; k < size; k++ {
							run = append(run, byte(r.Uint64()))
						}
						continue
					}
					if run, err = codec.AppendMarshal(run, fo.Randomize(r.Intn(fo.Domain()), r)); err != nil {
						t.Fatal(err)
					}
				}
				want, got := fo.NewAggregator(), fo.NewAggregator()
				var wantErr error
				for off := 0; off < len(run); off += size {
					rep, err := codec.Unmarshal(run[off : off+size])
					if err != nil {
						if wantErr == nil {
							wantErr = err
						}
						continue
					}
					want.Add(rep)
				}
				gotErr := codec.Fold(got, run)
				name := fmt.Sprintf("%s (%d-byte records), %d records, %.2f refused", fo.Name(), size, records, badShare)
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Fatalf("%s: Fold returned %v, first Unmarshal error is %v", name, gotErr, wantErr)
				}
				wb, err := want.(encoding.BinaryMarshaler).MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				gb, err := got.(encoding.BinaryMarshaler).MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(gb, wb) {
					t.Fatalf("%s: folded state differs from per-record Unmarshal + Add", name)
				}
			}
		}
	}
}
