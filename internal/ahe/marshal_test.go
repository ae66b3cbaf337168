package ahe

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/big"
	"testing"
)

// buildDGKPubBlob assembles a well-framed public-key blob from raw
// field values, so tests can probe semantic validation (not just
// framing) with inputs Marshal would never produce.
func buildDGKPubBlob(l byte, rnd uint32, n, g, h *big.Int) []byte {
	buf := append([]byte(dgkPubMagic), dgkMarshalVersion, l)
	buf = binary.BigEndian.AppendUint32(buf, rnd)
	buf = appendBigInt(buf, n)
	buf = appendBigInt(buf, g)
	return appendBigInt(buf, h)
}

func TestDGKPublicKeyRoundTrip(t *testing.T) {
	priv, err := GenerateDGK(512, 64)
	if err != nil {
		t.Fatal(err)
	}
	blob := MarshalDGKPublicKey(&priv.DGKPublicKey)
	pub, err := UnmarshalDGKPublicKey(blob)
	if err != nil {
		t.Fatal(err)
	}
	// A ciphertext produced under the restored public key must decrypt
	// under the original private key.
	c, err := pub.Encrypt(0xdeadbeefcafe)
	if err != nil {
		t.Fatal(err)
	}
	m, err := priv.Decrypt(c)
	if err != nil {
		t.Fatal(err)
	}
	if m != 0xdeadbeefcafe {
		t.Fatalf("decrypted %x", m)
	}
	// Homomorphic ops and fixed-size serialization survive the trip.
	if pub.CiphertextBytes() != priv.CiphertextBytes() {
		t.Fatalf("ciphertext size changed: %d vs %d", pub.CiphertextBytes(), priv.CiphertextBytes())
	}
	c2, err := pub.AddPlain(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m, _ := priv.Decrypt(c2); m != 0xdeadbeefcafe+1 {
		t.Fatalf("homomorphic add under restored key: %x", m)
	}
	// The restored key must serialize/deserialize ciphertexts
	// compatibly with the original.
	rt, err := priv.Deserialize(pub.Serialize(c))
	if err != nil {
		t.Fatal(err)
	}
	if m, _ := priv.Decrypt(rt); m != 0xdeadbeefcafe {
		t.Fatalf("ciphertext round trip through restored key: %x", m)
	}
}

func TestDGKPrivateKeyRoundTrip(t *testing.T) {
	priv, err := GenerateDGK(512, 64)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := UnmarshalDGKPrivateKey(MarshalDGKPrivateKey(priv))
	if err != nil {
		t.Fatal(err)
	}
	// Encrypt under the original, decrypt under the restored key (and
	// the other way around).
	for i, enc := range []PublicKey{priv, restored} {
		dec := []*DGKPrivateKey{restored, priv}[i]
		c, err := enc.Encrypt(uint64(1234567 + i))
		if err != nil {
			t.Fatal(err)
		}
		m, err := dec.Decrypt(c)
		if err != nil {
			t.Fatal(err)
		}
		if m != uint64(1234567+i) {
			t.Fatalf("cross decrypt %d: got %d", i, m)
		}
	}
	// The marshaled forms are identical (pure function of the key).
	if !bytes.Equal(MarshalDGKPrivateKey(priv), MarshalDGKPrivateKey(restored)) {
		t.Fatal("restored key marshals differently")
	}
}

func TestDGKKeyUnmarshalRejectsCorruption(t *testing.T) {
	priv, err := GenerateDGK(512, 16)
	if err != nil {
		t.Fatal(err)
	}
	pubBlob := MarshalDGKPublicKey(&priv.DGKPublicKey)
	privBlob := MarshalDGKPrivateKey(priv)

	cases := map[string][]byte{
		"empty":             nil,
		"bad magic":         append([]byte("NOPE"), pubBlob[4:]...),
		"truncated":         pubBlob[:len(pubBlob)/2],
		"trailing":          append(append([]byte(nil), pubBlob...), 0),
		"future version":    append([]byte(dgkPubMagic+"\x02"), pubBlob[5:]...),
		"private as public": privBlob,
	}
	for name, blob := range cases {
		if _, err := UnmarshalDGKPublicKey(blob); !errors.Is(err, ErrKeyFormat) {
			t.Errorf("%s: want ErrKeyFormat, got %v", name, err)
		}
	}
	if _, err := UnmarshalDGKPrivateKey(pubBlob); !errors.Is(err, ErrKeyFormat) {
		t.Errorf("public as private: want ErrKeyFormat, got %v", err)
	}
	// A private blob whose p belongs to a different key must be
	// refused, not silently produce a key that decrypts garbage.
	other, err := GenerateDGK(512, 16)
	if err != nil {
		t.Fatal(err)
	}
	mixed := append([]byte(dgkPrivMagic), MarshalDGKPublicKey(&priv.DGKPublicKey)[4:]...)
	mixed = appendBigInt(mixed, other.p)
	mixed = appendBigInt(mixed, other.vp)
	if _, err := UnmarshalDGKPrivateKey(mixed); !errors.Is(err, ErrKeyFormat) {
		t.Errorf("mixed key halves: want ErrKeyFormat, got %v", err)
	}
}

// TestDGKKeyUnmarshalRejectsSemanticCorruption covers blobs that frame
// correctly but describe keys that cannot work: every one of these
// used to parse into a "key" that encrypted to garbage, allocated
// absurdly, or decrypted every ciphertext wrong.
func TestDGKKeyUnmarshalRejectsSemanticCorruption(t *testing.T) {
	priv, err := GenerateDGK(512, 16)
	if err != nil {
		t.Fatal(err)
	}
	pub := priv.DGKPublicKey
	one := big.NewInt(1)
	evenN := new(big.Int).Add(pub.n, one) // n is odd, so n+1 is even

	cases := map[string][]byte{
		"zero n":     buildDGKPubBlob(byte(pub.l), dgkRndBits, big.NewInt(0), pub.g, pub.h),
		"even n":     buildDGKPubBlob(byte(pub.l), dgkRndBits, evenN, pub.g, pub.h),
		"tiny n":     buildDGKPubBlob(byte(pub.l), dgkRndBits, big.NewInt(0xfff1), pub.g, pub.h),
		"g = 1":      buildDGKPubBlob(byte(pub.l), dgkRndBits, pub.n, one, pub.h),
		"h = 1":      buildDGKPubBlob(byte(pub.l), dgkRndBits, pub.n, pub.g, one),
		"g >= n":     buildDGKPubBlob(byte(pub.l), dgkRndBits, pub.n, pub.n, pub.h),
		"h >= n":     buildDGKPubBlob(byte(pub.l), dgkRndBits, pub.n, pub.g, pub.n),
		"zero rnd":   buildDGKPubBlob(byte(pub.l), 0, pub.n, pub.g, pub.h),
		"absurd rnd": buildDGKPubBlob(byte(pub.l), 1<<30, pub.n, pub.g, pub.h),
		// Any other randomizer length than the scheme's: a short one
		// leaves each plaintext a handful of ciphertexts, a long one
		// sizes the h table by the blob's claim.
		"short rnd 1":   buildDGKPubBlob(byte(pub.l), 1, pub.n, pub.g, pub.h),
		"short rnd 399": buildDGKPubBlob(byte(pub.l), dgkRndBits-1, pub.n, pub.g, pub.h),
		"long rnd 401":  buildDGKPubBlob(byte(pub.l), dgkRndBits+1, pub.n, pub.g, pub.h),
		"long rnd 8192": buildDGKPubBlob(byte(pub.l), 8192, pub.n, pub.g, pub.h),
		"l = 0":         buildDGKPubBlob(0, dgkRndBits, pub.n, pub.g, pub.h),
		"l = 65":        buildDGKPubBlob(65, dgkRndBits, pub.n, pub.g, pub.h),
	}
	for name, blob := range cases {
		if _, err := UnmarshalDGKPublicKey(blob); !errors.Is(err, ErrKeyFormat) {
			t.Errorf("%s: want ErrKeyFormat, got %v", name, err)
		}
	}

	// Private-key semantics: vp must divide p-1.
	pm1 := new(big.Int).Sub(priv.p, one)
	badVP := new(big.Int).Add(priv.vp, one)
	for new(big.Int).Mod(pm1, badVP).Sign() == 0 {
		badVP.Add(badVP, one)
	}
	blob := append([]byte(dgkPrivMagic), MarshalDGKPublicKey(&pub)[4:]...)
	blob = appendBigInt(blob, priv.p)
	blob = appendBigInt(blob, badVP)
	if _, err := UnmarshalDGKPrivateKey(blob); !errors.Is(err, ErrKeyFormat) {
		t.Errorf("vp not dividing p-1: want ErrKeyFormat, got %v", err)
	}

	// gamma = g^vp must have exact order 2^l. Swapping g for g^2 keeps
	// every framing and divisibility check happy but halves gamma's
	// order — the resulting key would mis-decrypt the top plaintext bit
	// of every ciphertext.
	g2 := new(big.Int).Exp(pub.g, big.NewInt(2), pub.n)
	blob = append([]byte(dgkPrivMagic), buildDGKPubBlob(byte(pub.l), dgkRndBits, pub.n, g2, pub.h)[4:]...)
	blob = appendBigInt(blob, priv.p)
	blob = appendBigInt(blob, priv.vp)
	if _, err := UnmarshalDGKPrivateKey(blob); !errors.Is(err, ErrKeyFormat) {
		t.Errorf("gamma of wrong order: want ErrKeyFormat, got %v", err)
	}

	// p from another modulus entirely (prime, right size, coprime to n).
	if _, err := UnmarshalDGKPrivateKey(func() []byte {
		b := append([]byte(dgkPrivMagic), MarshalDGKPublicKey(&pub)[4:]...)
		b = appendBigInt(b, new(big.Int).Sub(priv.p, big.NewInt(2)))
		return appendBigInt(b, priv.vp)
	}()); !errors.Is(err, ErrKeyFormat) {
		t.Errorf("foreign p: want ErrKeyFormat, got %v", err)
	}
}

// FuzzUnmarshalDGKKeys drives both unmarshalers with mutated key
// blobs. Accepted public keys must survive one encryption without
// panicking; everything else must fail with an error, not a crash.
func FuzzUnmarshalDGKKeys(f *testing.F) {
	priv, err := GenerateDGK(448, 16)
	if err != nil {
		f.Fatal(err)
	}
	pub := priv.DGKPublicKey
	f.Add(MarshalDGKPublicKey(&pub))
	f.Add(MarshalDGKPrivateKey(priv))
	f.Add(buildDGKPubBlob(byte(pub.l), 1<<30, pub.n, pub.g, pub.h))
	f.Add(buildDGKPubBlob(0, dgkRndBits, pub.n, pub.g, pub.h))
	f.Add(buildDGKPubBlob(byte(pub.l), dgkRndBits, new(big.Int).Add(pub.n, big.NewInt(1)), pub.g, pub.h))
	f.Add([]byte(dgkPubMagic))
	f.Add([]byte(dgkPrivMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		if k, err := UnmarshalDGKPublicKey(data); err == nil {
			// Bound the work: a fuzz-accepted modulus can be up to
			// dgkMaxIntBytes wide, and exponentiating there is pure
			// stall, not signal.
			if k.n.BitLen() <= 1024 {
				if _, err := k.Encrypt(42); err != nil {
					t.Fatalf("accepted key failed to encrypt: %v", err)
				}
			}
		}
		if k, err := UnmarshalDGKPrivateKey(data); err == nil {
			if k.n.BitLen() <= 1024 {
				c, err := k.Encrypt(42)
				if err != nil {
					t.Fatalf("accepted private key failed to encrypt: %v", err)
				}
				if m, err := k.Decrypt(c); err != nil || m != 42 {
					t.Fatalf("accepted private key round trip: m=%d err=%v", m, err)
				}
			}
		}
	})
}
