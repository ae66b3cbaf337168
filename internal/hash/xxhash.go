// Package hash provides the hashing substrate of the repository: a
// from-scratch xxHash64 implementation, the seeded universal hash family
// used by the local-hashing frequency oracles (OLH, SOLH), and a fast
// Walsh–Hadamard transform for the Hadamard response oracle.
//
// The paper's prototype uses python-xxhash with 32-bit seeds as the
// "randomly chosen hash function from a universal family" (§VII-B,
// appendix). We keep the 32-bit seed in the report and xxHash64 for
// byte-string keys (TreeHist), but integer keys use a provably
// strongly universal multiply-add-shift family whose coefficients
// xxHash64 expands from the seed (see Family): the server evaluates the
// hash n*d times per estimate, and that family costs one multiply per
// evaluation.
package hash

import "encoding/binary"

const (
	prime1 uint64 = 0x9e3779b185ebca87
	prime2 uint64 = 0xc2b2ae3d27d4eb4f
	prime3 uint64 = 0x165667b19e3779f9
	prime4 uint64 = 0x85ebca77c2b2ae63
	prime5 uint64 = 0x27d4eb2f165667c5
)

func rol(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

func round(acc, input uint64) uint64 {
	acc += input * prime2
	acc = rol(acc, 31)
	acc *= prime1
	return acc
}

func mergeRound(acc, val uint64) uint64 {
	val = round(0, val)
	acc ^= val
	acc = acc*prime1 + prime4
	return acc
}

// Sum64 computes the xxHash64 of data with the given seed.
func Sum64(seed uint64, data []byte) uint64 {
	n := len(data)
	var h uint64
	p := data
	if n >= 32 {
		v1 := seed + prime1 + prime2
		v2 := seed + prime2
		v3 := seed
		v4 := seed - prime1
		for len(p) >= 32 {
			v1 = round(v1, binary.LittleEndian.Uint64(p[0:8]))
			v2 = round(v2, binary.LittleEndian.Uint64(p[8:16]))
			v3 = round(v3, binary.LittleEndian.Uint64(p[16:24]))
			v4 = round(v4, binary.LittleEndian.Uint64(p[24:32]))
			p = p[32:]
		}
		h = rol(v1, 1) + rol(v2, 7) + rol(v3, 12) + rol(v4, 18)
		h = mergeRound(h, v1)
		h = mergeRound(h, v2)
		h = mergeRound(h, v3)
		h = mergeRound(h, v4)
	} else {
		h = seed + prime5
	}
	h += uint64(n)
	for len(p) >= 8 {
		h ^= round(0, binary.LittleEndian.Uint64(p[:8]))
		h = rol(h, 27)*prime1 + prime4
		p = p[8:]
	}
	if len(p) >= 4 {
		h ^= uint64(binary.LittleEndian.Uint32(p[:4])) * prime1
		h = rol(h, 23)*prime2 + prime3
		p = p[4:]
	}
	for _, b := range p {
		h ^= uint64(b) * prime5
		h = rol(h, 11) * prime1
	}
	h ^= h >> 33
	h *= prime2
	h ^= h >> 29
	h *= prime3
	h ^= h >> 32
	return h
}

// Sum64Uint64 hashes a single 64-bit value: the 8-byte specialization
// of Sum64 — bit-identical to hashing the value's little-endian
// encoding — written without the byte staging or length loops so it
// inlines. The integer-key family expands a report's seed into its
// multiply-add-shift coefficients with it (see Family). It never
// allocates.
func Sum64Uint64(seed, v uint64) uint64 {
	k := rol(v*prime2, 31) * prime1
	h := rol((seed+prime5+8)^k, 27)*prime1 + prime4
	h ^= h >> 33
	h *= prime2
	h ^= h >> 29
	h *= prime3
	h ^= h >> 32
	return h
}
