package ecies

import (
	"bytes"
	"testing"
)

func TestEncryptDecryptRoundTrip(t *testing.T) {
	priv, err := GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range [][]byte{
		{},
		[]byte("x"),
		[]byte("the quick brown fox"),
		bytes.Repeat([]byte{0xaa}, 4096),
	} {
		ct, err := Encrypt(priv.Public(), msg)
		if err != nil {
			t.Fatal(err)
		}
		if len(ct) != len(msg)+Overhead {
			t.Fatalf("ciphertext size %d, want %d", len(ct), len(msg)+Overhead)
		}
		pt, err := Decrypt(priv, ct)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pt, msg) {
			t.Fatalf("roundtrip mismatch for %d-byte message", len(msg))
		}
	}
}

func TestDecryptWrongKeyFails(t *testing.T) {
	a, _ := GenerateKey()
	b, _ := GenerateKey()
	ct, err := Encrypt(a.Public(), []byte("secret"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decrypt(b, ct); err == nil {
		t.Fatal("decryption with the wrong key should fail")
	}
}

func TestTamperDetection(t *testing.T) {
	priv, _ := GenerateKey()
	ct, err := Encrypt(priv.Public(), []byte("integrity matters"))
	if err != nil {
		t.Fatal(err)
	}
	for _, pos := range []int{0, pubKeySize + 2, len(ct) - 1} {
		bad := append([]byte(nil), ct...)
		bad[pos] ^= 0x01
		if _, err := Decrypt(priv, bad); err == nil {
			t.Fatalf("tampering at byte %d went undetected", pos)
		}
	}
}

func TestDecryptTooShort(t *testing.T) {
	priv, _ := GenerateKey()
	if _, err := Decrypt(priv, make([]byte, Overhead-1)); err == nil {
		t.Fatal("short ciphertext should be rejected")
	}
}

func TestCiphertextsAreProbabilistic(t *testing.T) {
	priv, _ := GenerateKey()
	a, _ := Encrypt(priv.Public(), []byte("same message"))
	b, _ := Encrypt(priv.Public(), []byte("same message"))
	if bytes.Equal(a, b) {
		t.Fatal("two encryptions identical")
	}
}

func TestOnionPeelOrder(t *testing.T) {
	const hops = 3
	privs := make([]*PrivateKey, hops)
	pubs := make([]*PublicKey, hops)
	for i := range privs {
		k, err := GenerateKey()
		if err != nil {
			t.Fatal(err)
		}
		privs[i] = k
		pubs[i] = k.Public()
	}
	msg := []byte("through the onion")
	onion, err := OnionEncrypt(pubs, msg)
	if err != nil {
		t.Fatal(err)
	}
	if len(onion) != len(msg)+hops*Overhead {
		t.Fatalf("onion size %d, want %d", len(onion), len(msg)+hops*Overhead)
	}
	// Peel in hop order.
	data := onion
	for i := 0; i < hops; i++ {
		data, err = Decrypt(privs[i], data)
		if err != nil {
			t.Fatalf("hop %d failed to peel: %v", i, err)
		}
	}
	if !bytes.Equal(data, msg) {
		t.Fatal("onion roundtrip mismatch")
	}
}

func TestOnionWrongOrderFails(t *testing.T) {
	k1, _ := GenerateKey()
	k2, _ := GenerateKey()
	onion, err := OnionEncrypt([]*PublicKey{k1.Public(), k2.Public()}, []byte("m"))
	if err != nil {
		t.Fatal(err)
	}
	// Hop 2 cannot peel first.
	if _, err := Decrypt(k2, onion); err == nil {
		t.Fatal("out-of-order peel should fail")
	}
}

func TestOnionNoHops(t *testing.T) {
	if _, err := OnionEncrypt(nil, []byte("m")); err == nil {
		t.Fatal("empty hop list should error")
	}
}
