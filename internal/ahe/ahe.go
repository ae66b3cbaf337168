// Package ahe implements additively homomorphic encryption (§II-C).
//
// One scheme is provided: DGK (Damgård–Geisler–Krøigaard), in the
// full-decryption variant with plaintext space Z_{2^l} decrypted via
// Pohlig–Hellman — the scheme the paper instantiates PEOS with
// (§VI-A3): "there is a crucial requirement for the AHE scheme: it
// should support a plaintext space of Z_{2^l} ... so that the decrypted
// result modulo 2^l looks like other reports."
//
// Keys, ciphertexts and the reference paths use math/big; every hot
// modular multiplication runs on one of mont.go's Montgomery kernels,
// chosen per modulus by what the CPU has: the radix-2^52 IFMA kernel
// (ifma_amd64.s), the fused ADX kernel (mont_amd64.s), or REDC over
// big.Int.Mul everywhere else. Randomness is crypto/rand. Key
// generation is probabilistic-prime based, so use small key sizes in
// tests (512/1024 bits) and 3072 bits to match the paper's Table III.
package ahe

import "math/big"

// Ciphertext is one encrypted value: a single group element of Z_n.
type Ciphertext struct {
	v *big.Int
}

// Clone returns an independent copy, for a caller that keeps a
// ciphertext across an in-place FoldChunk (dst[i] aliasing src[i]). No
// role needs one: the oblivious shuffle writes into fresh ciphertexts.
func (c *Ciphertext) Clone() *Ciphertext { return &Ciphertext{v: new(big.Int).Set(c.v)} }

// outAt returns the big.Int dst[i] holds its group element in, giving
// a nil dst[i] a ciphertext of its own: where the chunk kernels write.
func outAt(dst []*Ciphertext, i int) *big.Int {
	if dst[i] == nil {
		dst[i] = new(Ciphertext)
	}
	if dst[i].v == nil {
		dst[i].v = new(big.Int)
	}
	return dst[i].v
}

// PublicKey is the encryptor/evaluator side: users encrypt their last
// share with it, shufflers homomorphically add and rerandomize. Every
// role works in chunks (EncryptChunk, FoldChunk), which DGK runs two
// ciphertexts at a time; the one-ciphertext methods are wrappers.
type PublicKey interface {
	// PlaintextBits returns l: plaintext semantics are Z_{2^l}.
	PlaintextBits() int
	// Encrypt encrypts m (reduced mod 2^l): EncryptChunk of one.
	Encrypt(m uint64) (*Ciphertext, error)
	// AddPlain returns a ciphertext of (plaintext of a) + m: FoldChunk
	// of one, without the refresh.
	AddPlain(a *Ciphertext, m uint64) (*Ciphertext, error)
	// Rerandomize refreshes the ciphertext so it is unlinkable to its
	// input (multiplication by a fresh encryption of zero): FoldChunk of
	// one, adding 0.
	Rerandomize(a *Ciphertext) (*Ciphertext, error)
	// NewScratch returns a fresh scratch area for one worker goroutine
	// of the chunk kernels below.
	NewScratch() *Scratch
	// EncryptChunk sets dst[i] to a fresh encryption of ms[i] for every
	// i (len(dst) == len(ms)), on the calling worker's Scratch. A nil
	// dst[i] gets a ciphertext of its own; any other is overwritten.
	EncryptChunk(dst []*Ciphertext, ms []uint64, sc *Scratch) error
	// FoldChunk sets dst[i] to a ciphertext of (plaintext of src[i]) +
	// ms[i] for every i, refreshed by a fresh h^r when refresh holds
	// (len(dst) == len(src) == len(ms)). dst[i] may be src[i], or nil —
	// the form the oblivious shuffle uses, so its input vector stays
	// intact.
	FoldChunk(dst, src []*Ciphertext, ms []uint64, refresh bool, sc *Scratch) error
	// StartRandomizerPool starts or joins the key's background
	// randomizer refiller, which precomputes encryption randomizers off
	// the critical path, and returns the matching stop function. Call
	// sites with an encryption-heavy phase — the PEOS user loop, the
	// cluster client, the shufflers' rerandomize sites — hold it for
	// the phase's duration:
	//
	//	defer pub.StartRandomizerPool()()
	//
	// Starting is reference-counted and the returned stop is idempotent,
	// so nested components sharing one key compose safely.
	StartRandomizerPool() (stop func())
	// CiphertextBytes returns the fixed serialized size, used by the
	// Table III communication accounting.
	CiphertextBytes() int
	// Serialize encodes a ciphertext into exactly CiphertextBytes()
	// bytes; Deserialize reverses it.
	Serialize(a *Ciphertext) []byte
	Deserialize(data []byte) (*Ciphertext, error)
	// DeserializeVector decodes the concatenation of any number of
	// serializations. It accepts exactly the vectors whose every element
	// Deserialize accepts — an error names the first offending index —
	// and is how a whole vector should be decoded: checks that batch
	// (DGK's unit test) are paid once per vector, not once per element.
	DeserializeVector(data []byte) ([]*Ciphertext, error)
}

// PrivateKey adds decryption.
type PrivateKey interface {
	PublicKey
	// DecryptChunk sets dst[i] to the plaintext of cs[i], in [0, 2^l),
	// for every i (len(dst) == len(cs)), on the calling worker's
	// Scratch. A chunk is how decryption fans out: DGK decrypts its
	// ciphertexts two at a time.
	DecryptChunk(dst []uint64, cs []*Ciphertext, sc *Scratch) error
}

// Scratch holds the per-worker temporaries the chunk kernels reuse
// across calls. One Scratch belongs to exactly one goroutine; distinct
// workers of a parallel loop each allocate their own via NewScratch.
type Scratch struct {
	e, r    [2]big.Int // a pair's reduced plaintexts and randomizers
	t, q, u big.Int    // mulRedcBig's product, quotient and quotient*modulus
	x       big.Int    // a ciphertext mod p; the portable exp's power
	// rnd is the one crypto/rand read a pair's randomizers come from.
	rnd [2 * dgkRndBits / 8]byte
	// w is the ADX kernel's accumulator, acc the chunk lanes' elems,
	// pows exp2's window powers, dec decryptPair's chains and snapshots
	// and key its lookup key (mont.go, dgk.go); redcs counts the
	// Montgomery multiplications run on this Scratch, which the
	// work-count tests read.
	w, acc, pows, dec []big.Word
	key               []byte
	redcs             uint64
}

// serializeFixed left-pads v to size bytes.
func serializeFixed(v *big.Int, size int) []byte {
	out := make([]byte, size)
	b := v.Bytes()
	if len(b) > size {
		panic("ahe: value exceeds fixed serialization size")
	}
	copy(out[size-len(b):], b)
	return out
}
