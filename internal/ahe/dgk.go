package ahe

import (
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"
	"slices"
	"sync"
	"sync/atomic"
)

// DGK in the full-decryption variant (§VI-A3, [24] with the
// Pohlig–Hellman decryption of [49]).
//
// Construction. For plaintext space Z_u with u = 2^l:
//
//	p = u * vp * fp + 1,   q = u * vq * fq + 1     (vp, vq: t-bit primes)
//	n = p q
//	g: order u*vp mod p and u*vq mod q  (so order u*vp*vq mod n)
//	h: order vp   mod p and vq   mod q  (so order vp*vq mod n)
//
//	Enc(m; r) = g^m h^r mod n,  r uniform in [0, 2^{2.5 t})
//
// Decryption works mod p only: c^vp = (g^vp)^m (h^vp)^r = gamma^m with
// gamma = g^vp of order u = 2^l, and the discrete log of gamma^m in the
// 2-group of order 2^l is recovered digit by digit (Pohlig–Hellman
// needs only small exponentiations because 2^l is smooth).
//
// The homomorphic sum therefore lives in Z_{2^l} exactly — partial sums
// of shares wrap just like plaintext shares do, which is the property
// PEOS needs so fake reports are indistinguishable after decryption.
//
// Kernels. Both bases of Enc are fixed per key, so every public-key
// operation multiplies fixed-base window-table entries (fixedbase.go)
// straight into the ciphertext — tables built once per key and shared
// read-only, optionally fronted by the background randomizer pool
// (randpool.go). Every key has them: GenerateDGK and both unmarshalers
// are the only constructors, and each sets fb, so there is one kernel
// path and no generic-exponentiation fall-through. Its exponents fit
// the tables by construction: a plaintext is reduced to l bits before
// it meets g's table, and a randomizer is drawn below 2^dgkRndBits,
// the width of h's. Decryption recovers the discrete log 8 bits per
// round from one shared squaring chain and per-key digit tables — O(l)
// modular multiplications per ciphertext instead of the naive O(l^2)
// squaring triangle. Every one of those multiplications is the
// division-free mulRedc of mont.go: table entries, pooled randomizers
// and digit rows are stored in Montgomery form, ciphertexts never are.
// The bit-by-bit decryption (decryptNaive) stays as the fall-through
// for a unit outside gamma's subgroup, which a hostile peer can send.
// The generic math/big encryption is the conformance reference in
// fixedbase_test.go, which holds the kernels bit-identical to it.

const dgkSubgroupBits = 160 // t: size of vp, vq

// dgkRndBits is the randomizer bit length, 2.5t. Every key uses it: the
// key blob carries it, and the unmarshalers refuse any other value.
const dgkRndBits = dgkSubgroupBits * 5 / 2

// dgkDecDigitBits is the Pohlig–Hellman digit width of the fast
// decryption path: 8 bits per round bounds every lookup table at 256
// entries while keeping the round count at ceil(l/8).
const dgkDecDigitBits = 8

// DGKPrivateKey holds the full key. It implements PrivateKey.
type DGKPrivateKey struct {
	DGKPublicKey
	p     *big.Int // prime factor of n
	vp    *big.Int // odd prime subgroup order mod p
	gamma *big.Int // g^vp mod p, order 2^l
	// gammaP[i] = gamma^(2^i) mod p and gammaInvP[i] its inverse,
	// precomputed so Pohlig–Hellman decryption needs no ModInverse.
	gammaP    []*big.Int
	gammaInvP []*big.Int
	// dec holds the windowed-decryption digit tables. Every private
	// key has them: finishDGKPrivateKey, which both constructors end
	// in, builds them.
	dec *dgkDecFast
}

// DGKPublicKey implements PublicKey.
type DGKPublicKey struct {
	n    *big.Int
	g, h *big.Int
	l    int // plaintext bits
	// fb is the shared kernel state (fixed-base tables, randomizer
	// pool), set by both constructors and never nil. It is a pointer so
	// every copy of the key struct — including the embedded copy inside
	// DGKPrivateKey and interface values — shares one set of tables,
	// built on first use.
	fb *dgkFast
}

// dgkFast is the per-key kernel state shared by all copies of a
// DGKPublicKey.
type dgkFast struct {
	once sync.Once
	m    *mont    // Montgomery context mod n, shared by both tables
	gTab *fbTable // fixed-base windows for g, exponents < 2^l
	hTab *fbTable // fixed-base windows for h, exponents < 2^dgkRndBits
	// pool is the optional background randomizer pool; poolMu guards
	// only start/stop bookkeeping — the hot path drains through the
	// atomic pointer without taking any lock.
	pool     atomic.Pointer[randPool]
	poolMu   sync.Mutex
	poolRefs int

	// poolHits counts randomizers served from the pool and poolMisses
	// randomizers computed inline (pool dry or never started) — the
	// observable the scaling benches use to prove a parallel
	// rerandomize loop stayed on the pooled fast path.
	poolHits   atomic.Uint64
	poolMisses atomic.Uint64
}

// ensure builds the fixed-base tables once and returns fb. k is a copy
// of the owning key (all its big.Int fields are shared pointers, so any
// copy works).
func (fb *dgkFast) ensure(k DGKPublicKey) *dgkFast {
	fb.once.Do(func() {
		fb.m = newMont(k.n)
		fb.gTab = newFBTable(k.g, fb.m, k.l)
		fb.hTab = newFBTable(k.h, fb.m, dgkRndBits)
	})
	return fb
}

// GenerateDGK creates a DGK key pair with an n of about keyBits bits
// and plaintext space Z_{2^plaintextBits} (1..64). keyBits must be at
// least enough to fit the subgroups (plaintextBits + 160 + slack).
func GenerateDGK(keyBits, plaintextBits int) (*DGKPrivateKey, error) {
	if plaintextBits < 1 || plaintextBits > 64 {
		return nil, errors.New("ahe: plaintext bits must be in [1, 64]")
	}
	half := keyBits / 2
	minHalf := plaintextBits + dgkSubgroupBits + 32
	if half < minHalf {
		return nil, fmt.Errorf("ahe: keyBits %d too small for plaintext 2^%d (need >= %d)",
			keyBits, plaintextBits, 2*minHalf)
	}
	u := new(big.Int).Lsh(big.NewInt(1), uint(plaintextBits))

	vp, err := rand.Prime(rand.Reader, dgkSubgroupBits)
	if err != nil {
		return nil, err
	}
	vq, err := rand.Prime(rand.Reader, dgkSubgroupBits)
	if err != nil {
		return nil, err
	}
	p, err := dgkPrime(half, u, vp)
	if err != nil {
		return nil, err
	}
	q, err := dgkPrime(half, u, vq)
	if err != nil {
		return nil, err
	}
	if p.Cmp(q) == 0 {
		return nil, errors.New("ahe: degenerate key (p == q)")
	}
	n := new(big.Int).Mul(p, q)

	gp, err := elementOfOrder(p, new(big.Int).Mul(u, vp), []*big.Int{big.NewInt(2), vp})
	if err != nil {
		return nil, err
	}
	gq, err := elementOfOrder(q, new(big.Int).Mul(u, vq), []*big.Int{big.NewInt(2), vq})
	if err != nil {
		return nil, err
	}
	hp, err := elementOfOrder(p, vp, []*big.Int{vp})
	if err != nil {
		return nil, err
	}
	hq, err := elementOfOrder(q, vq, []*big.Int{vq})
	if err != nil {
		return nil, err
	}
	g, err := crt(gp, gq, p, q)
	if err != nil {
		return nil, err
	}
	h, err := crt(hp, hq, p, q)
	if err != nil {
		return nil, err
	}

	pub := DGKPublicKey{
		n:  n,
		g:  g,
		h:  h,
		l:  plaintextBits,
		fb: &dgkFast{},
	}
	return finishDGKPrivateKey(pub, p, vp)
}

// finishDGKPrivateKey derives the decryption accelerators (gamma, its
// power tables, and the windowed-decryption digit tables) from the key
// material (pub, p, vp). Key generation and private-key
// deserialization share it, so a restored key decrypts exactly like
// the original.
func finishDGKPrivateKey(pub DGKPublicKey, p, vp *big.Int) (*DGKPrivateKey, error) {
	gamma := new(big.Int).Exp(new(big.Int).Mod(pub.g, p), vp, p)
	gammaInv := new(big.Int).ModInverse(gamma, p)
	if gammaInv == nil {
		return nil, errors.New("ahe: gamma not invertible")
	}
	priv := &DGKPrivateKey{
		DGKPublicKey: pub,
		p:            p,
		vp:           vp,
		gamma:        gamma,
	}
	// Precompute gamma^(2^i) and gamma^(-2^i) for the digit-wise
	// discrete log (one ModInverse at keygen instead of one per
	// decrypted bit).
	priv.gammaP = make([]*big.Int, pub.l)
	priv.gammaInvP = make([]*big.Int, pub.l)
	cur := new(big.Int).Set(gamma)
	curInv := new(big.Int).Set(gammaInv)
	for i := 0; i < pub.l; i++ {
		priv.gammaP[i] = new(big.Int).Set(cur)
		priv.gammaInvP[i] = new(big.Int).Set(curInv)
		cur = new(big.Int).Mod(new(big.Int).Mul(cur, cur), p)
		curInv = new(big.Int).Mod(new(big.Int).Mul(curInv, curInv), p)
	}
	priv.dec = newDGKDecFast(priv)
	return priv, nil
}

// dgkDecFast holds the per-key digit tables of the windowed
// Pohlig–Hellman decryption, every group element in Montgomery form
// mod p (decryptFast converts c^vp once and never converts back).
// Immutable after construction.
type dgkDecFast struct {
	m *mont // Montgomery context mod p
	// exps[i] = l - 8i - widths[i]: the power of two that maps round
	// i's digit into the top window, strictly decreasing to 0.
	exps []int
	// widths[i] is round i's digit width: 8 for all but possibly the
	// final round (l mod 8, when l is not a multiple of 8).
	widths []int
	// look[i] maps gamma^(d << (l - widths[i])) * R mod p — as
	// keyLen fixed-width bytes — back to the digit d. All full-width
	// rounds share one map.
	look   []map[string]byte
	keyLen int
	// inv[pos][d-1] = gamma^(-d << pos) * R mod p for the correction
	// factors that cancel already-recovered digits out of the shared
	// squaring chain.
	inv map[int][]*big.Int
}

// newDGKDecFast precomputes the digit tables: one 2^8-entry lookup
// (plus a smaller one when l is not a multiple of 8) and at most
// ceil(l/8)-1 inverse rows of 255 entries — a few thousand modular
// multiplications mod p, once per private key.
func newDGKDecFast(k *DGKPrivateKey) *dgkDecFast {
	l := k.l
	nd := (l + dgkDecDigitBits - 1) / dgkDecDigitBits
	df := &dgkDecFast{
		m:      newMont(k.p),
		exps:   make([]int, nd),
		widths: make([]int, nd),
		look:   make([]map[string]byte, nd),
		keyLen: (k.p.BitLen() + 7) / 8,
		inv:    make(map[int][]*big.Int),
	}
	var sc Scratch
	for i := 0; i < nd; i++ {
		w := dgkDecDigitBits
		if rem := l - dgkDecDigitBits*i; rem < w {
			w = rem
		}
		df.widths[i] = w
		df.exps[i] = l - dgkDecDigitBits*i - w
	}
	// Lookup tables keyed by digit width: gamma^(d << (l-w)).
	byWidth := make(map[int]map[string]byte)
	for i := 0; i < nd; i++ {
		w := df.widths[i]
		tab := byWidth[w]
		if tab == nil {
			tab = make(map[string]byte, 1<<uint(w))
			base := df.m.toMont(k.gammaP[l-w], &sc) // gamma^(2^(l-w))
			cur := new(big.Int).Set(df.m.one)
			key := make([]byte, df.keyLen)
			for d := 0; d < 1<<uint(w); d++ {
				tab[string(cur.FillBytes(key))] = byte(d)
				df.m.mulRedc(cur, cur, base, &sc)
			}
			byWidth[w] = tab
		}
		df.look[i] = tab
	}
	// Correction rows: round i cancels digit j (< i) with
	// gamma^(-d_j << (exps[i] + 8j)): for each distinct pos,
	// gamma^(-2^pos) and its 255 multiples.
	var pos []int
	var bases []*big.Int
	for i := 1; i < nd; i++ {
		for j := 0; j < i; j++ {
			p := df.exps[i] + dgkDecDigitBits*j
			if !slices.Contains(pos, p) {
				pos = append(pos, p)
				bases = append(bases, df.m.toMont(k.gammaInvP[p], &sc))
			}
		}
	}
	for i, row := range df.m.powerRows(bases) {
		df.inv[pos[i]] = row
	}
	return df
}

// dgkPrime finds a prime p = u*v*f + 1 of exactly `bits` bits.
func dgkPrime(bits int, u, v *big.Int) (*big.Int, error) {
	uv := new(big.Int).Mul(u, v)
	fBits := bits - uv.BitLen()
	if fBits < 16 {
		return nil, errors.New("ahe: key half too small for subgroup structure")
	}
	one := big.NewInt(1)
	for attempts := 0; attempts < 100000; attempts++ {
		f, err := rand.Int(rand.Reader, new(big.Int).Lsh(one, uint(fBits)))
		if err != nil {
			return nil, err
		}
		f.SetBit(f, fBits-1, 1) // force the top bit so p has full size
		p := new(big.Int).Mul(uv, f)
		p.Add(p, one)
		// uv*f with f's top bit forced can still land one bit short of
		// the target (uv*f in [uv*2^(fBits-1), uv*2^fBits) straddles
		// 2^(bits-1)); resample rather than hand back a weaker modulus.
		if p.BitLen() != bits {
			continue
		}
		if p.ProbablyPrime(20) {
			return p, nil
		}
	}
	return nil, errors.New("ahe: failed to find DGK prime")
}

// elementOfOrder returns an element of exact multiplicative order
// `order` mod prime p, where order | p-1 and primeFactors lists the
// distinct primes dividing order.
func elementOfOrder(p, order *big.Int, primeFactors []*big.Int) (*big.Int, error) {
	pm1 := new(big.Int).Sub(p, big.NewInt(1))
	exp := new(big.Int).Div(pm1, order)
	one := big.NewInt(1)
	for attempts := 0; attempts < 1000; attempts++ {
		x, err := rand.Int(rand.Reader, p)
		if err != nil {
			return nil, err
		}
		if x.Sign() == 0 {
			continue
		}
		g := new(big.Int).Exp(x, exp, p)
		if g.Cmp(one) == 0 {
			continue
		}
		// Exact order check: g^(order/r) != 1 for every prime r | order.
		ok := true
		for _, r := range primeFactors {
			e := new(big.Int).Div(order, r)
			if new(big.Int).Exp(g, e, p).Cmp(one) == 0 {
				ok = false
				break
			}
		}
		if ok {
			return g, nil
		}
	}
	return nil, errors.New("ahe: failed to find element of required order")
}

// crt combines x = a mod p, x = b mod q into x mod pq.
func crt(a, b, p, q *big.Int) (*big.Int, error) {
	qInv := new(big.Int).ModInverse(q, p)
	if qInv == nil {
		return nil, errors.New("ahe: p and q not coprime")
	}
	// x = b + q * ((a - b) * qInv mod p)
	diff := new(big.Int).Sub(a, b)
	diff.Mod(diff, p)
	diff.Mul(diff, qInv)
	diff.Mod(diff, p)
	x := new(big.Int).Mul(q, diff)
	x.Add(x, b)
	return x, nil
}

// PlaintextBits implements PublicKey.
func (k DGKPublicKey) PlaintextBits() int { return k.l }

// StartRandomizerPool implements PublicKey: it starts (or joins) the
// key's background refiller producing randomizers h^r off the critical
// path, with capacity and refill concurrency derived from GOMAXPROCS
// (randpool.go). The returned stop function is idempotent; the pool
// shuts down when every starter has called stop.
func (k DGKPublicKey) StartRandomizerPool() (stop func()) {
	fb := k.fb
	fb.poolMu.Lock()
	if fb.poolRefs == 0 {
		fb.ensure(k)
		key := k // the fill closure's stable copy
		fb.pool.Store(newRandPool(func(sc *Scratch) (*big.Int, error) {
			r, err := key.randomizer()
			if err != nil {
				return nil, err
			}
			// Starting the chain at R yields h^r*R, the form a pool
			// hit multiplies in with one mulRedc.
			hr := new(big.Int).Set(fb.m.one)
			fb.hTab.mulInto(hr, r, sc)
			return hr, nil
		}))
	}
	fb.poolRefs++
	fb.poolMu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			fb.poolMu.Lock()
			fb.poolRefs--
			last := fb.poolRefs == 0
			var p *randPool
			if last {
				p = fb.pool.Swap(nil)
			}
			fb.poolMu.Unlock()
			if p != nil {
				p.stop()
			}
		})
	}
}

// reduceInto sets dst to m mod 2^l, an exponent g's table covers.
func (k DGKPublicKey) reduceInto(dst *big.Int, m uint64) *big.Int {
	if k.l != 64 {
		m &= (1 << uint(k.l)) - 1
	}
	return dst.SetUint64(m)
}

// randomizer draws r uniform in [0, 2^dgkRndBits), an exponent h's
// table covers.
func (k DGKPublicKey) randomizer() (*big.Int, error) {
	bound := new(big.Int).Lsh(big.NewInt(1), dgkRndBits)
	return rand.Int(rand.Reader, bound)
}

// mulHPower multiplies v, a residue mod n, by h^r for a fresh
// randomizer r: one multiplication by a pooled h^r when the background
// pool has one ready, the fixed-base chain straight into v otherwise.
// It feeds the hit/miss counters RandomizerPoolStats reports.
func (k DGKPublicKey) mulHPower(v *big.Int, sc *Scratch) error {
	fb := k.fb.ensure(k)
	if p := fb.pool.Load(); p != nil {
		if hr := p.get(); hr != nil {
			fb.poolHits.Add(1)
			fb.m.mulRedc(v, v, hr, sc)
			return nil
		}
	}
	fb.poolMisses.Add(1)
	r, err := k.randomizer()
	if err != nil {
		return err
	}
	fb.hTab.mulInto(v, r, sc)
	return nil
}

// RandomizerPoolStats returns the cumulative randomizer accounting of
// this key: hits (randomizers served from the background pool) and
// misses (randomizers computed inline, because the pool was dry or
// never started). The scaling benches record them to prove a
// multi-worker rerandomize sweep stayed on the pooled fast path.
func (k DGKPublicKey) RandomizerPoolStats() (hits, misses uint64) {
	return k.fb.poolHits.Load(), k.fb.poolMisses.Load()
}

// Encrypt implements PublicKey: g^m h^r mod n, as 1 -> *g^m -> *h^r
// through the in-place kernels.
func (k DGKPublicKey) Encrypt(m uint64) (*Ciphertext, error) {
	c, sc := &Ciphertext{v: big.NewInt(1)}, k.NewScratch()
	if err := k.AddPlainInto(c, c, m, sc); err != nil {
		return nil, err
	}
	if err := k.RerandomizeInto(c, c, sc); err != nil {
		return nil, err
	}
	return c, nil
}

// AddPlain implements PublicKey: multiply by g^m (no fresh randomness;
// call Rerandomize if unlinkability is needed).
func (k DGKPublicKey) AddPlain(a *Ciphertext, m uint64) (*Ciphertext, error) {
	dst := new(Ciphertext)
	if err := k.AddPlainInto(dst, a, m, k.NewScratch()); err != nil {
		return nil, err
	}
	return dst, nil
}

// Rerandomize implements PublicKey: multiply by h^r.
func (k DGKPublicKey) Rerandomize(a *Ciphertext) (*Ciphertext, error) {
	dst := new(Ciphertext)
	if err := k.RerandomizeInto(dst, a, k.NewScratch()); err != nil {
		return nil, err
	}
	return dst, nil
}

// NewScratch implements PublicKey.
func (k DGKPublicKey) NewScratch() *Scratch { return &Scratch{} }

// AddPlainInto implements PublicKey: AddPlain(a, m) into dst (which
// may alias a). The fixed-base chain runs straight into dst's own
// big.Int through sc, so a steady-state fold loop allocates nothing.
func (k DGKPublicKey) AddPlainInto(dst, a *Ciphertext, m uint64, sc *Scratch) error {
	k.fb.ensure(k).gTab.mulInto(dst.startAt(a), k.reduceInto(&sc.e, m), sc)
	return nil
}

// RerandomizeInto implements PublicKey: Rerandomize(a) into dst
// (which may alias a). The randomizer comes from the shared pool when
// one is running and from an inline fixed-base chain into dst
// otherwise — a crypto/rand draw of the same width either way.
func (k DGKPublicKey) RerandomizeInto(dst, a *Ciphertext, sc *Scratch) error {
	return k.mulHPower(dst.startAt(a), sc)
}

// CiphertextBytes implements PublicKey.
func (k DGKPublicKey) CiphertextBytes() int { return (k.n.BitLen() + 7) / 8 }

// Serialize implements PublicKey.
func (k DGKPublicKey) Serialize(a *Ciphertext) []byte {
	return serializeFixed(a.v, k.CiphertextBytes())
}

// Deserialize implements PublicKey.
func (k DGKPublicKey) Deserialize(data []byte) (*Ciphertext, error) {
	if len(data) != k.CiphertextBytes() {
		return nil, fmt.Errorf("ahe: DGK ciphertext must be %d bytes, got %d",
			k.CiphertextBytes(), len(data))
	}
	v := new(big.Int).SetBytes(data)
	if v.Cmp(k.n) >= 0 {
		return nil, errors.New("ahe: ciphertext out of range")
	}
	// Every valid ciphertext is a unit mod n (a product of powers of g
	// and h). v = 0 in particular decrypts to silent garbage — the
	// all-ones plaintext — so a zero or other non-unit is a range
	// error, not a ciphertext.
	if v.Sign() == 0 || new(big.Int).GCD(nil, nil, v, k.n).Cmp(bigOne) != 0 {
		return nil, errors.New("ahe: ciphertext out of range (not a unit mod n)")
	}
	return &Ciphertext{v: v}, nil
}

// DeserializeVector implements PublicKey: it accepts exactly the
// vectors every element of which Deserialize accepts, with the unit
// check batched. Length, range and zero stay per element (they are
// comparisons). Units of Z_n are a group and a non-unit shares p or q
// with n, so the elements are all units iff their product is: one
// mulRedc per element into a running product — the stray R^-k it
// collects is itself a unit — and one GCD per vector where Deserialize
// pays one per element.
func (k DGKPublicKey) DeserializeVector(data []byte) ([]*Ciphertext, error) {
	size := k.CiphertextBytes()
	if len(data)%size != 0 {
		return nil, fmt.Errorf("ahe: DGK ciphertext vector of %d bytes is not a multiple of %d", len(data), size)
	}
	out := make([]*Ciphertext, len(data)/size)
	if k.unitProduct(out, data) {
		return out, nil
	}
	// A vector with a bad element, walked again only to name the
	// culprit.
	for i := range out {
		c, err := k.Deserialize(data[i*size : (i+1)*size])
		if err != nil {
			return nil, fmt.Errorf("ahe: ciphertext %d: %w", i, err)
		}
		out[i] = c
	}
	return out, nil
}

// unitProduct parses the len(out) fixed-size elements of data into out
// and reports whether every one is a unit in [1, n).
func (k DGKPublicKey) unitProduct(out []*Ciphertext, data []byte) bool {
	m, size := k.fb.ensure(k).m, k.CiphertextBytes()
	prod := big.NewInt(1)
	var sc Scratch
	for i := range out {
		v := new(big.Int).SetBytes(data[i*size : (i+1)*size])
		if v.Sign() == 0 || v.Cmp(k.n) >= 0 {
			return false
		}
		m.mulRedc(prod, prod, v, &sc)
		out[i] = &Ciphertext{v: v}
	}
	return prod.GCD(nil, nil, prod, k.n).Cmp(bigOne) == 0
}

// bigOne is the shared unit constant for the Deserialize gcd checks.
var bigOne = big.NewInt(1)

// Decrypt implements PrivateKey via Pohlig–Hellman in the 2^l-order
// subgroup: recover m from c^vp = gamma^m mod p, 8 bits per round
// (falling back to the bit-by-bit decryption when the value is outside
// gamma's subgroup, so Decrypt is defined the same way on every input).
func (k *DGKPrivateKey) Decrypt(c *Ciphertext) (uint64, error) {
	if m, ok := k.decryptFast(c); ok {
		return m, nil
	}
	return k.decryptNaive(c)
}

// decryptFast recovers the plaintext with one shared squaring chain
// and the per-key digit tables:
//
//	cm = c^vp = gamma^m mod p
//	round i digit: (cm * gamma^(-(m mod 2^(8i))))^(2^exps[i])
//	             = gamma^(d_i << (l - w_i))     -> table lookup
//
// The powers cm^(2^e) come from ONE ascending chain of l-w_0
// squarings snapshotted at each exps[i] (the naive path re-squares
// from scratch every bit — the O(l^2) inner loop this replaces), and
// the correction factors gamma^(-d_j << (exps[i]+8j)) are table rows.
// Total: ~l squarings + O((l/8)^2) multiplications mod p, every one a
// mulRedc: cm enters the Montgomery domain once, squares and
// corrections keep it there, and the lookup is keyed by the
// Montgomery-form bytes, so nothing is converted back.
//
// ok = false means the value is not in gamma's 2^l-order subgroup
// (impossible for anything produced by Encrypt/Add/AddPlain/
// Rerandomize); the caller falls back to the bit-by-bit path so junk
// inputs keep their reference behavior.
func (k *DGKPrivateKey) decryptFast(c *Ciphertext) (uint64, bool) {
	df := k.dec
	nd := len(df.exps)
	var sc Scratch
	cur := new(big.Int).Exp(new(big.Int).Mod(c.v, k.p), k.vp, k.p)
	df.m.mulRedc(cur, cur, df.m.r2, &sc)

	// One squaring chain, snapshotted at each round's exponent
	// (exps is strictly decreasing; exps[nd-1] == 0).
	snaps := make([]big.Int, nd)
	e := 0
	for i := nd - 1; i >= 0; i-- {
		for ; e < df.exps[i]; e++ {
			df.m.mulRedc(cur, cur, cur, &sc)
		}
		snaps[i].Set(cur)
	}

	var m uint64
	key := make([]byte, df.keyLen)
	for i := 0; i < nd; i++ {
		z := &snaps[i] // read by this round only, so corrected in place
		for j := 0; j < i; j++ {
			d := byte(m >> uint(dgkDecDigitBits*j))
			if d == 0 {
				continue
			}
			df.m.mulRedc(z, z, df.inv[df.exps[i]+dgkDecDigitBits*j][d-1], &sc)
		}
		d, ok := df.look[i][string(z.FillBytes(key))]
		if !ok {
			return 0, false
		}
		m |= uint64(d) << uint(dgkDecDigitBits*i)
	}
	return m, true
}

// decryptNaive is the bit-by-bit decryption: peel one bit per round,
// re-squaring the accumulator down to the top of the group each time
// (O(l^2) squarings). Decrypt falls through to it for a unit outside
// gamma's subgroup, and the conformance tests hold decryptFast to it.
func (k *DGKPrivateKey) decryptNaive(c *Ciphertext) (uint64, error) {
	cm := new(big.Int).Exp(new(big.Int).Mod(c.v, k.p), k.vp, k.p) // gamma^m
	var m uint64
	one := big.NewInt(1)
	// acc = gamma^(-m_partial) * gamma^m; peel one bit per round.
	acc := new(big.Int).Set(cm)
	for i := 0; i < k.l; i++ {
		// z = acc^(2^(l-1-i)); z == 1 iff bit i of the remaining
		// exponent is 0.
		z := new(big.Int).Set(acc)
		for j := 0; j < k.l-1-i; j++ {
			z.Mul(z, z).Mod(z, k.p)
		}
		if z.Cmp(one) != 0 {
			m |= 1 << uint(i)
			// Divide acc by gamma^(2^i) via the precomputed inverse.
			acc.Mul(acc, k.gammaInvP[i]).Mod(acc, k.p)
		}
	}
	return m, nil
}
