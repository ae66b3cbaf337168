package ahe

// Key serialization for the role-separated PEOS deployment
// (internal/cluster, cmd/shuffled): the analyzer generates the DGK key
// pair and hands the public half to clients and shufflers as a file or
// wire blob, and persists the private half next to its durable state
// so a recovered analyzer keeps decrypting the cluster's ciphertexts.
//
// Layout (all lengths big-endian uint32, all values big.Int bytes):
//
//	"DGKP" | version | l u8 | rnd u32 | n | g | h            public key
//	"DGKS" | version | <public key body> | p | vp            private key
//
// The private-key blob contains the full secret factorization — treat
// it like any private key file (the cmd layer writes it 0600).

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
)

const (
	dgkPubMagic  = "DGKP"
	dgkPrivMagic = "DGKS"
	// dgkMarshalVersion is bumped when the layout changes; readers
	// refuse newer versions instead of misparsing them.
	dgkMarshalVersion = 1
	// dgkMaxIntBytes bounds one serialized big.Int (a 64k-bit modulus is
	// far past any sane key size) so a corrupt length prefix cannot
	// force a huge allocation.
	dgkMaxIntBytes = 1 << 13
)

// ErrKeyFormat is returned when a key blob is malformed, truncated, or
// written by a newer serialization version.
var ErrKeyFormat = errors.New("ahe: malformed DGK key blob")

func appendBigInt(buf []byte, v *big.Int) []byte {
	b := v.Bytes()
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(b)))
	return append(buf, b...)
}

type keyReader struct {
	data []byte
	err  error
}

func (r *keyReader) take(n int) []byte {
	if r.err != nil || len(r.data) < n {
		r.err = ErrKeyFormat
		return nil
	}
	out := r.data[:n]
	r.data = r.data[n:]
	return out
}

func (r *keyReader) bigInt() *big.Int {
	lb := r.take(4)
	if r.err != nil {
		return nil
	}
	n := binary.BigEndian.Uint32(lb)
	if n > dgkMaxIntBytes {
		r.err = ErrKeyFormat
		return nil
	}
	b := r.take(int(n))
	if r.err != nil {
		return nil
	}
	return new(big.Int).SetBytes(b)
}

// MarshalDGKPublicKey serializes the public half of a DGK key.
func MarshalDGKPublicKey(pub *DGKPublicKey) []byte {
	buf := append([]byte(nil), dgkPubMagic...)
	buf = append(buf, dgkMarshalVersion, byte(pub.l))
	buf = binary.BigEndian.AppendUint32(buf, dgkRndBits)
	buf = appendBigInt(buf, pub.n)
	buf = appendBigInt(buf, pub.g)
	return appendBigInt(buf, pub.h)
}

// unmarshalDGKPublicBody parses everything after the magic.
func unmarshalDGKPublicBody(r *keyReader) (*DGKPublicKey, error) {
	hdr := r.take(2)
	if r.err != nil {
		return nil, r.err
	}
	if hdr[0] != dgkMarshalVersion {
		return nil, fmt.Errorf("%w: version %d (this build reads %d)", ErrKeyFormat, hdr[0], dgkMarshalVersion)
	}
	l := int(hdr[1])
	rndb := r.take(4)
	if r.err != nil {
		return nil, r.err
	}
	rnd := int(binary.BigEndian.Uint32(rndb))
	n, g, h := r.bigInt(), r.bigInt(), r.bigInt()
	if r.err != nil {
		return nil, r.err
	}
	if l < 1 || l > 64 || n.Sign() <= 0 || g.Sign() <= 0 || h.Sign() <= 0 {
		return nil, ErrKeyFormat
	}
	// The scheme writes only dgkRndBits. A shorter randomizer leaves
	// each plaintext few ciphertexts, so EOS's refreshes stop unlinking
	// anything; a longer one sizes the h table (and every Encrypt's
	// exponent) by whatever the blob claims.
	if rnd != dgkRndBits {
		return nil, fmt.Errorf("%w: randomizer length %d bits (the scheme uses %d)", ErrKeyFormat, rnd, dgkRndBits)
	}
	// n = pq is odd and must at least hold the plaintext and one
	// subgroup per factor; a "valid-looking" even or tiny n makes the
	// homomorphic ops silently meaningless.
	if n.Bit(0) == 0 || n.BitLen() < 2*(l+dgkSubgroupBits) {
		return nil, fmt.Errorf("%w: modulus is even or too small for the subgroup structure", ErrKeyFormat)
	}
	if g.Cmp(n) >= 0 || h.Cmp(n) >= 0 {
		return nil, fmt.Errorf("%w: group elements outside the modulus", ErrKeyFormat)
	}
	// g = 1 or h = 1 parses fine but loses the plaintext (every
	// "ciphertext" of such a key is a power of the other generator).
	one := big.NewInt(1)
	if g.Cmp(one) == 0 || h.Cmp(one) == 0 {
		return nil, fmt.Errorf("%w: degenerate generator", ErrKeyFormat)
	}
	return &DGKPublicKey{n: n, g: g, h: h, l: l, fb: &dgkFast{}}, nil
}

// UnmarshalDGKPublicKey reverses MarshalDGKPublicKey. Malformed input
// is refused with an error wrapping ErrKeyFormat, never a panic.
func UnmarshalDGKPublicKey(data []byte) (*DGKPublicKey, error) {
	r := &keyReader{data: data}
	if string(r.take(4)) != dgkPubMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrKeyFormat)
	}
	pub, err := unmarshalDGKPublicBody(r)
	if err != nil {
		return nil, err
	}
	if len(r.data) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrKeyFormat, len(r.data))
	}
	return pub, nil
}

// MarshalDGKPrivateKey serializes a full DGK key pair (the secret
// factors included — handle the blob like a private key file).
func MarshalDGKPrivateKey(priv *DGKPrivateKey) []byte {
	buf := append([]byte(nil), dgkPrivMagic...)
	buf = append(buf, MarshalDGKPublicKey(&priv.DGKPublicKey)[4:]...)
	buf = appendBigInt(buf, priv.p)
	return appendBigInt(buf, priv.vp)
}

// UnmarshalDGKPrivateKey reverses MarshalDGKPrivateKey, rebuilding the
// decryption accelerators so the restored key decrypts bit-identically
// to the original.
func UnmarshalDGKPrivateKey(data []byte) (*DGKPrivateKey, error) {
	r := &keyReader{data: data}
	if string(r.take(4)) != dgkPrivMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrKeyFormat)
	}
	pub, err := unmarshalDGKPublicBody(r)
	if err != nil {
		return nil, err
	}
	p, vp := r.bigInt(), r.bigInt()
	if r.err != nil {
		return nil, r.err
	}
	if len(r.data) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrKeyFormat, len(r.data))
	}
	one := big.NewInt(1)
	if p.Cmp(one) <= 0 || vp.Cmp(one) <= 0 || p.Cmp(pub.n) >= 0 {
		return nil, ErrKeyFormat
	}
	// p must divide n; a blob mixing halves of two keys decrypts
	// garbage, so refuse it here.
	if new(big.Int).Mod(pub.n, p).Sign() != 0 {
		return nil, fmt.Errorf("%w: p does not divide n", ErrKeyFormat)
	}
	// vp must divide p-1 — it is the order of h's component mod p, and
	// the decryption exponent. A corrupt vp would not crash anything;
	// it would decrypt every ciphertext to confident garbage.
	pm1 := new(big.Int).Sub(p, one)
	if new(big.Int).Mod(pm1, vp).Sign() != 0 {
		return nil, fmt.Errorf("%w: vp does not divide p-1", ErrKeyFormat)
	}
	priv, err := finishDGKPrivateKey(*pub, p, vp)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrKeyFormat, err)
	}
	// gamma = g^vp mod p must have exact order 2^l for Pohlig–Hellman
	// digit recovery to be well-defined: gamma^(2^l) = 1 and
	// gamma^(2^(l-1)) != 1. This is the cheapest complete check that
	// the (n, g, p, vp) quadruple is one consistent key.
	u := new(big.Int).Lsh(one, uint(pub.l))
	if new(big.Int).Exp(priv.gamma, u, p).Cmp(one) != 0 ||
		new(big.Int).Exp(priv.gamma, new(big.Int).Rsh(u, 1), p).Cmp(one) == 0 {
		return nil, fmt.Errorf("%w: gamma does not have order 2^l", ErrKeyFormat)
	}
	return priv, nil
}
