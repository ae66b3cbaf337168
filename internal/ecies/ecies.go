// Package ecies implements the hybrid public-key encryption the SS
// (sequential shuffle) baseline uses (§VII-A "Implementation"): the
// paper encrypts each message under AES-128-CBC with a fresh key and
// wraps the key with elliptic-curve ElGamal on secp256r1. We implement
// the standard ECIES composition over the same curve (P-256): ephemeral
// ECDH -> HKDF-SHA256 -> AES-CTR + HMAC-SHA256 (encrypt-then-MAC),
// which has the same asymptotics and 128-bit security.
//
// Onion encryption (§VI-A1) stacks one layer per shuffler plus one for
// the server; each hop strips exactly one layer.
package ecies

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
)

const (
	pubKeySize = 65 // uncompressed P-256 point
	macSize    = 32
	// Overhead is the ciphertext expansion of one layer.
	Overhead = pubKeySize + macSize
)

// PrivateKey is a P-256 decryption key.
type PrivateKey struct {
	key *ecdh.PrivateKey
}

// PublicKey is the matching encryption key.
type PublicKey struct {
	key *ecdh.PublicKey
}

// GenerateKey creates a fresh P-256 key pair.
func GenerateKey() (*PrivateKey, error) {
	key, err := ecdh.P256().GenerateKey(rand.Reader)
	if err != nil {
		return nil, err
	}
	return &PrivateKey{key: key}, nil
}

// Public returns the public half.
func (k *PrivateKey) Public() *PublicKey {
	return &PublicKey{key: k.key.PublicKey()}
}

// deriveKeys expands the ECDH shared secret into an AES key and a MAC
// key with HKDF-SHA256 (extract with a fixed salt, one expand round).
func deriveKeys(secret, ephPub []byte) (encKey, macKey []byte) {
	// HKDF-Extract(salt="shuffledp-ecies-v1", IKM=secret || ephPub).
	ext := hmac.New(sha256.New, []byte("shuffledp-ecies-v1"))
	ext.Write(secret)
	ext.Write(ephPub)
	prk := ext.Sum(nil)
	// HKDF-Expand: T1 = HMAC(prk, 0x01), T2 = HMAC(prk, T1 || 0x02).
	h1 := hmac.New(sha256.New, prk)
	h1.Write([]byte{1})
	t1 := h1.Sum(nil)
	h2 := hmac.New(sha256.New, prk)
	h2.Write(t1)
	h2.Write([]byte{2})
	t2 := h2.Sum(nil)
	return t1[:16], t2 // AES-128 key, 32-byte MAC key
}

// Encrypt seals plaintext to pub. Output layout:
// ephemeral public key (65) || ciphertext (len(plaintext)) || MAC (32).
func Encrypt(pub *PublicKey, plaintext []byte) ([]byte, error) {
	eph, err := ecdh.P256().GenerateKey(rand.Reader)
	if err != nil {
		return nil, err
	}
	secret, err := eph.ECDH(pub.key)
	if err != nil {
		return nil, err
	}
	ephPub := eph.PublicKey().Bytes()
	encKey, macKey := deriveKeys(secret, ephPub)

	block, err := aes.NewCipher(encKey)
	if err != nil {
		return nil, err
	}
	// CTR with a zero IV is safe here because the key is single-use
	// (fresh ephemeral ECDH per message).
	var iv [aes.BlockSize]byte
	out := make([]byte, 0, len(plaintext)+Overhead)
	out = append(out, ephPub...)
	out = append(out, plaintext...)
	ct := out[pubKeySize:]
	cipher.NewCTR(block, iv[:]).XORKeyStream(ct, ct)

	mac := hmac.New(sha256.New, macKey)
	mac.Write(out)
	return mac.Sum(out), nil
}

// Decrypt opens a ciphertext produced by Encrypt.
func Decrypt(priv *PrivateKey, data []byte) ([]byte, error) {
	if len(data) < Overhead {
		return nil, errors.New("ecies: ciphertext too short")
	}
	ephPub := data[:pubKeySize]
	ct := data[pubKeySize : len(data)-macSize]
	tag := data[len(data)-macSize:]

	ephKey, err := ecdh.P256().NewPublicKey(ephPub)
	if err != nil {
		return nil, fmt.Errorf("ecies: bad ephemeral key: %w", err)
	}
	secret, err := priv.key.ECDH(ephKey)
	if err != nil {
		return nil, err
	}
	encKey, macKey := deriveKeys(secret, ephPub)

	mac := hmac.New(sha256.New, macKey)
	mac.Write(ephPub)
	mac.Write(ct)
	if !hmac.Equal(mac.Sum(nil), tag) {
		return nil, errors.New("ecies: MAC verification failed")
	}
	block, err := aes.NewCipher(encKey)
	if err != nil {
		return nil, err
	}
	var iv [aes.BlockSize]byte
	pt := make([]byte, len(ct))
	cipher.NewCTR(block, iv[:]).XORKeyStream(pt, ct)
	return pt, nil
}

// OnionEncrypt wraps plaintext for the given hop keys so that
// hops[0] peels first, then hops[1], and so on: the onion is encrypted
// inside-out (last hop's layer innermost).
func OnionEncrypt(hops []*PublicKey, plaintext []byte) ([]byte, error) {
	if len(hops) == 0 {
		return nil, errors.New("ecies: onion needs at least one hop")
	}
	data := plaintext
	var err error
	for i := len(hops) - 1; i >= 0; i-- {
		data, err = Encrypt(hops[i], data)
		if err != nil {
			return nil, err
		}
	}
	return data, nil
}
