// Package secretshare implements additive secret sharing over Z_{2^l}
// (§II-C): a value v splits into r shares, r-1 of them uniformly random,
// the last one chosen so the shares sum to v modulo 2^l. No subset of
// fewer than r shares carries any information about v.
//
// PEOS shares each user's 64-bit encoded LDP report (ldp.WordEncoder)
// among the r shufflers this way, and the shufflers reshare during the
// oblivious shuffle (internal/oblivious).
package secretshare

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
)

// Source yields uniform 64-bit randomness. *rng.Rand satisfies it (for
// deterministic tests and simulations); Crypto is the production source.
type Source interface {
	Uint64() uint64
}

// cryptoSource reads from crypto/rand.
type cryptoSource struct{}

// Uint64 implements Source with crypto/rand bytes.
func (cryptoSource) Uint64() uint64 {
	var buf [8]byte
	if _, err := rand.Read(buf[:]); err != nil {
		// crypto/rand failing is unrecoverable for a security protocol.
		panic(fmt.Sprintf("secretshare: crypto/rand: %v", err))
	}
	return binary.LittleEndian.Uint64(buf[:])
}

// Crypto is a Source backed by crypto/rand, for protocol use.
var Crypto Source = cryptoSource{}

// Modulus is the ring Z_{2^l}, 1 <= l <= 64.
type Modulus struct {
	mask uint64 // 2^l - 1 (all ones for l = 64)
}

// NewModulus returns the ring Z_{2^bits}. It panics unless
// 1 <= bits <= 64.
func NewModulus(bits int) Modulus {
	if bits < 1 || bits > 64 {
		panic("secretshare: modulus bits must be in [1, 64]")
	}
	if bits == 64 {
		return Modulus{mask: ^uint64(0)}
	}
	return Modulus{mask: (1 << uint(bits)) - 1}
}

// Reduce maps x into [0, 2^l).
func (m Modulus) Reduce(x uint64) uint64 { return x & m.mask }

// Add returns (a + b) mod 2^l.
func (m Modulus) Add(a, b uint64) uint64 { return (a + b) & m.mask }

// Sub returns (a - b) mod 2^l.
func (m Modulus) Sub(a, b uint64) uint64 { return (a - b) & m.mask }

// Random returns a uniform element of Z_{2^l} from src.
func (m Modulus) Random(src Source) uint64 { return src.Uint64() & m.mask }

// Split shares value into r additive shares: r-1 uniform, the last the
// difference. It panics if r < 2 (a single "share" is the value itself
// and offers no hiding).
func Split(value uint64, r int, mod Modulus, src Source) []uint64 {
	if r < 2 {
		panic("secretshare: need at least 2 shares")
	}
	shares := make([]uint64, r)
	sum := uint64(0)
	for i := 0; i < r-1; i++ {
		shares[i] = mod.Random(src)
		sum = mod.Add(sum, shares[i])
	}
	shares[r-1] = mod.Sub(mod.Reduce(value), sum)
	return shares
}

// SplitVector shares each element of values independently, returning r
// share vectors (the j-th vector goes to party j).
func SplitVector(values []uint64, r int, mod Modulus, src Source) [][]uint64 {
	out := make([][]uint64, r)
	for j := range out {
		out[j] = make([]uint64, len(values))
	}
	for i, v := range values {
		sum := uint64(0)
		for j := 0; j < r-1; j++ {
			s := mod.Random(src)
			out[j][i] = s
			sum = mod.Add(sum, s)
		}
		out[r-1][i] = mod.Sub(mod.Reduce(v), sum)
	}
	return out
}
