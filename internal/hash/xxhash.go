// Package hash provides the hashing substrate of the repository: a
// from-scratch xxHash64 of one 64-bit word and the seeded universal hash
// family used by the local-hashing frequency oracles (OLH, SOLH).
//
// The paper's prototype uses python-xxhash with 32-bit seeds as the
// "randomly chosen hash function from a universal family" (§VII-B,
// appendix). We keep the 32-bit seed in the report, but keys use a
// provably strongly universal multiply-add-shift family whose
// coefficients xxHash64 expands from the seed (see Family): the server
// evaluates the hash n*d times per estimate, and that family costs one
// multiply per evaluation.
package hash

const (
	prime1 uint64 = 0x9e3779b185ebca87
	prime2 uint64 = 0xc2b2ae3d27d4eb4f
	prime3 uint64 = 0x165667b19e3779f9
	prime4 uint64 = 0x85ebca77c2b2ae63
	prime5 uint64 = 0x27d4eb2f165667c5
)

func rol(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Sum64Uint64 is xxHash64 of a single 64-bit value: bit-identical to
// hashing the value's little-endian encoding, written without the byte
// staging or length loops so it inlines. The integer-key family expands
// a report's seed into its multiply-add-shift coefficients with it (see
// Family). It never allocates.
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
