package ahe

import (
	"math/big"
	"sync"
	"testing"
	"testing/quick"

	"shuffledp/internal/rng"
)

// Key generation is the expensive part; share small test keys.
var (
	dgkOnce   sync.Once
	dgkKey    *DGKPrivateKey
	dgkKeyErr error
)

func testDGK(t *testing.T) *DGKPrivateKey {
	t.Helper()
	dgkOnce.Do(func() { dgkKey, dgkKeyErr = GenerateDGK(768, 32) })
	if dgkKeyErr != nil {
		t.Fatalf("GenerateDGK: %v", dgkKeyErr)
	}
	return dgkKey
}

// mulCiphertexts multiplies two ciphertexts mod n: the group operation
// that adds their plaintexts, which every homomorphic kernel builds on.
func mulCiphertexts(n *big.Int, a, b *Ciphertext) *Ciphertext {
	v := new(big.Int).Mul(a.v, b.v)
	return &Ciphertext{v: v.Mod(v, n)}
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	key := testDGK(t)
	mask := uint64(1)<<uint(key.PlaintextBits()) - 1
	for _, m := range []uint64{0, 1, 2, 1000, mask, mask - 1} {
		c, err := key.Encrypt(m)
		if err != nil {
			t.Fatalf("Encrypt: %v", err)
		}
		got, err := key.Decrypt(c)
		if err != nil {
			t.Fatalf("Decrypt: %v", err)
		}
		if got != m&mask {
			t.Fatalf("roundtrip %d -> %d", m, got)
		}
	}
}

func TestHomomorphicAddition(t *testing.T) {
	key := testDGK(t)
	mask := uint64(1)<<uint(key.PlaintextBits()) - 1
	cases := [][2]uint64{{1, 2}, {mask, 1}, {mask, mask}, {0, 0}, {123456, 654321}}
	for _, c := range cases {
		ca, err := key.Encrypt(c[0])
		if err != nil {
			t.Fatal(err)
		}
		cb, err := key.Encrypt(c[1])
		if err != nil {
			t.Fatal(err)
		}
		sum, err := key.Decrypt(mulCiphertexts(key.n, ca, cb))
		if err != nil {
			t.Fatal(err)
		}
		if want := (c[0] + c[1]) & mask; sum != want {
			t.Fatalf("%d + %d = %d, want %d (mod 2^l)", c[0], c[1], sum, want)
		}
	}
}

func TestAddPlain(t *testing.T) {
	key := testDGK(t)
	mask := uint64(1)<<uint(key.PlaintextBits()) - 1
	c, err := key.Encrypt(100)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := key.AddPlain(c, mask) // adds -1 mod 2^l
	if err != nil {
		t.Fatal(err)
	}
	got, err := key.Decrypt(c2)
	if err != nil {
		t.Fatal(err)
	}
	if got != 99 {
		t.Fatalf("100 + (2^l - 1) = %d, want 99", got)
	}
}

func TestRerandomizePreservesPlaintextChangesCiphertext(t *testing.T) {
	key := testDGK(t)
	c, err := key.Encrypt(42)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := key.Rerandomize(c)
	if err != nil {
		t.Fatal(err)
	}
	if c.v.Cmp(c2.v) == 0 {
		t.Fatal("rerandomize did not change the ciphertext")
	}
	got, err := key.Decrypt(c2)
	if err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("rerandomize changed plaintext to %d", got)
	}
}

func TestProbabilisticEncryption(t *testing.T) {
	key := testDGK(t)
	a, err := key.Encrypt(7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := key.Encrypt(7)
	if err != nil {
		t.Fatal(err)
	}
	if a.v.Cmp(b.v) == 0 {
		t.Fatal("two encryptions of the same value are equal")
	}
}

func TestSerializeDeserialize(t *testing.T) {
	key := testDGK(t)
	c, err := key.Encrypt(31337)
	if err != nil {
		t.Fatal(err)
	}
	data := key.Serialize(c)
	if len(data) != key.CiphertextBytes() {
		t.Fatalf("serialized to %d bytes, want %d", len(data), key.CiphertextBytes())
	}
	c2, err := key.Deserialize(data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := key.Decrypt(c2)
	if err != nil {
		t.Fatal(err)
	}
	if got != 31337 {
		t.Fatalf("deserialize roundtrip gave %d", got)
	}
}

func TestDeserializeRejectsBadInput(t *testing.T) {
	key := testDGK(t)
	if _, err := key.Deserialize([]byte{1, 2, 3}); err == nil {
		t.Fatal("accepted short input")
	}
	// All-0xff of the right length exceeds the modulus.
	bad := make([]byte, key.CiphertextBytes())
	for i := range bad {
		bad[i] = 0xff
	}
	if _, err := key.Deserialize(bad); err == nil {
		t.Fatal("accepted out-of-range ciphertext")
	}
}

// Regression: Deserialize used to accept the all-zero blob. Zero is
// not a unit, is never produced by Encrypt, and is an absorbing
// element under Add — one planted by a malicious client silently
// destroys the whole shuffled accumulator. It must be refused at the
// door like any other out-of-range value.
func TestDeserializeRejectsZeroCiphertext(t *testing.T) {
	key := testDGK(t)
	zero := make([]byte, key.CiphertextBytes())
	if _, err := key.Deserialize(zero); err == nil {
		t.Fatal("accepted the zero ciphertext")
	}
	// A non-zero non-unit (a multiple of a secret factor) is just as
	// invalid: the shared factor is rejected too.
	pBlob := serializeFixed(key.p, key.CiphertextBytes())
	if _, err := key.Deserialize(pBlob); err == nil {
		t.Fatal("accepted a non-unit ciphertext")
	}
}

// Regression for the dgkPrime short-modulus bug: u*vp*fp + 1 can land
// a bit short of the requested prime size, and a run of unlucky draws
// used to yield keys whose modulus was several bits below the security
// target. Every generated key must now have a full-width modulus.
func TestGenerateDGKModulusWidth(t *testing.T) {
	const keyBits = 448
	for i := 0; i < 5; i++ {
		key, err := GenerateDGK(keyBits, 16)
		if err != nil {
			t.Fatal(err)
		}
		if got := key.n.BitLen(); got < keyBits-1 {
			t.Fatalf("keygen %d: modulus is %d bits, want >= %d", i, got, keyBits-1)
		}
	}
}

// Property: homomorphic sum of a random share vector decrypts to the
// plaintext sum mod 2^l — the exact operation EOS performs.
func TestQuickShareAccumulation(t *testing.T) {
	key := testDGK(t)
	mask := uint64(1)<<uint(key.PlaintextBits()) - 1
	r := rng.New(7)
	f := func(k uint8) bool {
		count := 2 + int(k%6)
		acc, err := key.Encrypt(0)
		if err != nil {
			return false
		}
		var want uint64
		for i := 0; i < count; i++ {
			s := r.Uint64() & mask
			want = (want + s) & mask
			c, err := key.Encrypt(s)
			if err != nil {
				return false
			}
			acc = mulCiphertexts(key.n, acc, c)
		}
		got, err := key.Decrypt(acc)
		return err == nil && got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestDGKStructure(t *testing.T) {
	key := testDGK(t)
	// g must have order u*vp*vq: g^(u*vp*vq) = 1 mod n but no proper
	// divisor exponent gives 1 for the u component.
	n := key.n
	u := new(big.Int).Lsh(big.NewInt(1), uint(key.PlaintextBits()))
	// gamma has order exactly 2^l mod p: gamma^(2^l) = 1, gamma^(2^(l-1)) != 1.
	full := new(big.Int).Exp(key.gamma, u, key.p)
	if full.Cmp(big.NewInt(1)) != 0 {
		t.Fatal("gamma^2^l != 1 mod p")
	}
	half := new(big.Int).Exp(key.gamma, new(big.Int).Rsh(u, 1), key.p)
	if half.Cmp(big.NewInt(1)) == 0 {
		t.Fatal("gamma has order < 2^l")
	}
	if key.CiphertextBytes() != (n.BitLen()+7)/8 {
		t.Fatal("ciphertext size mismatch")
	}
}

func TestGenerateDGKValidation(t *testing.T) {
	if _, err := GenerateDGK(768, 0); err == nil {
		t.Error("accepted plaintext bits 0")
	}
	if _, err := GenerateDGK(768, 65); err == nil {
		t.Error("accepted plaintext bits 65")
	}
	if _, err := GenerateDGK(128, 32); err == nil {
		t.Error("accepted tiny key")
	}
}

func TestDGK64BitPlaintext(t *testing.T) {
	if testing.Short() {
		t.Skip("64-bit plaintext key generation is slow")
	}
	key, err := GenerateDGK(768, 64)
	if err != nil {
		t.Fatal(err)
	}
	m := uint64(0xdeadbeefcafef00d)
	c, err := key.Encrypt(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := key.Decrypt(c)
	if err != nil {
		t.Fatal(err)
	}
	if got != m {
		t.Fatalf("roundtrip %x -> %x", m, got)
	}
	// Wrap-around: m + m must reduce mod 2^64.
	c2, err := key.Encrypt(m)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := key.Decrypt(mulCiphertexts(key.n, c, c2))
	if err != nil {
		t.Fatal(err)
	}
	if sum != m+m { // uint64 addition wraps exactly like Z_{2^64}
		t.Fatalf("wrap sum %x, want %x", sum, m+m)
	}
}
