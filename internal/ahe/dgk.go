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
// division-free mont.mul of mont.go: table entries, pooled randomizers
// and digit rows are stored as Montgomery-form elems, ciphertexts never
// are. Every operation runs two ciphertexts at a time on mont.mul2: the
// public-key chunks (EncryptChunk, FoldChunk) pair their lanes' g^m
// chains, their pool hits and their misses' h^r chains (chunk), and
// decryption pairs its chains (DecryptChunk), since c^vp's windows are
// the key's and both chains take the same steps.
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
	priv.dec = newDGKDecFast(priv, newMont(p))
	return priv, nil
}

// dgkDecFast holds the per-key digit tables of the windowed
// Pohlig–Hellman decryption, every group element a Montgomery-form elem
// mod p (decryptPair converts c^vp once and never converts back).
// Immutable after construction.
type dgkDecFast struct {
	m *mont // Montgomery context mod p
	// vpWin is vp's windows for mont.exp's c^vp (expWindows).
	vpWin []byte
	// exps[i] = l - 8i - widths[i]: the power of two that maps round
	// i's digit into the top window, strictly decreasing to 0.
	exps []int
	// widths[i] is round i's digit width: 8 for all but possibly the
	// final round (l mod 8, when l is not a multiple of 8).
	widths []int
	// look[i] maps gamma^(d << (l - widths[i])) * R mod p — as
	// mont.putKey bytes — back to the digit d. All full-width rounds
	// share one map.
	look []map[string]byte
	// inv[pos][d-1] = gamma^(-d << pos) * R mod p for the correction
	// factors that cancel already-recovered digits out of the shared
	// squaring chain.
	inv map[int][]elem
}

// newDGKDecFast precomputes the digit tables on m, a context mod p:
// one 2^8-entry lookup (plus a smaller one when l is not a multiple of
// 8) and at most ceil(l/8)-1 inverse rows of 255 entries — a few
// thousand modular multiplications mod p, once per private key.
func newDGKDecFast(k *DGKPrivateKey, m *mont) *dgkDecFast {
	l := k.l
	nd := (l + dgkDecDigitBits - 1) / dgkDecDigitBits
	df := &dgkDecFast{
		m:      m,
		vpWin:  expWindows(k.vp),
		exps:   make([]int, nd),
		widths: make([]int, nd),
		look:   make([]map[string]byte, nd),
		inv:    make(map[int][]elem),
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
			base := m.toMont(k.gammaP[l-w], &sc) // gamma^(2^(l-w))
			cur := slices.Clone(m.one)
			key := make([]byte, 8*m.width)
			for d := 0; d < 1<<uint(w); d++ {
				m.putKey(key, cur)
				tab[string(key)] = byte(d)
				m.mul(cur, cur, base, &sc)
			}
			byWidth[w] = tab
		}
		df.look[i] = tab
	}
	// Correction rows: round i cancels digit j (< i) with
	// gamma^(-d_j << (exps[i] + 8j)): for each distinct pos,
	// gamma^(-2^pos) and its 255 multiples.
	var pos []int
	var bases []elem
	for i := 1; i < nd; i++ {
		for j := 0; j < i; j++ {
			p := df.exps[i] + dgkDecDigitBits*j
			if !slices.Contains(pos, p) {
				pos = append(pos, p)
				bases = append(bases, m.toMont(k.gammaInvP[p], &sc))
			}
		}
	}
	for i, row := range m.powerRows(bases) {
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
		fb.pool.Store(newRandPool(poolCapacity(), poolRefillers(), fb.fillPair))
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

// fillPair is the refillers' step: two fresh randomizers h^r*R, the
// form a pool hit multiplies in with one mont.mul — chains started at
// R. The two elems share one slab.
func (fb *dgkFast) fillPair(sc *Scratch) [2]elem {
	hr := fb.m.elems(2)
	copy(hr[0], fb.m.one)
	copy(hr[1], fb.m.one)
	fb.mulH2(hr[0], hr[1], sc)
	return [2]elem(hr)
}

// reduceInto sets dst to m mod 2^l, an exponent g's table covers.
func (k DGKPublicKey) reduceInto(dst *big.Int, m uint64) *big.Int {
	if k.l != 64 {
		m &= (1 << uint(k.l)) - 1
	}
	return dst.SetUint64(m)
}

// mulH2 multiplies a0 and a1 (nil: a0 alone) by h^r for fresh
// randomizers r uniform in [0, 2^dgkRndBits) — the exponents h's table
// covers — in lockstep on the table's mul2. Both exponents come from
// one crypto/rand read into sc, so a draw allocates nothing; the read
// cannot fail (crypto/rand.Read crashes the program rather than return
// an error).
func (fb *dgkFast) mulH2(a0, a1 elem, sc *Scratch) {
	const size = dgkRndBits / 8
	b := sc.rnd[:]
	if a1 == nil {
		b = b[:size]
	}
	rand.Read(b)
	r0, r1 := sc.r[0].SetBytes(b[:size]), (*big.Int)(nil)
	if a1 != nil {
		r1 = sc.r[1].SetBytes(b[size:])
	}
	fb.hTab.mul2(a0, a1, r0, r1, sc)
}

// RandomizerPoolStats returns the cumulative randomizer accounting of
// this key: hits (ciphertexts refreshed by a randomizer from the
// background pool, a spare included) and misses (ciphertexts whose h^r
// chain ran inline, because the pool was dry or never started). Every
// refresh is exactly one of the two. The scaling benches record them to
// prove a multi-worker rerandomize sweep stayed on the pooled fast path.
func (k DGKPublicKey) RandomizerPoolStats() (hits, misses uint64) {
	return k.fb.poolHits.Load(), k.fb.poolMisses.Load()
}

// scratches serves the one-ciphertext wrappers a warm Scratch, so a
// call does not build one.
var scratches = sync.Pool{New: func() any { return new(Scratch) }}

// one runs chunk on a single ciphertext: the one-ciphertext wrappers.
func (k DGKPublicKey) one(src *Ciphertext, m uint64, refresh bool) (*Ciphertext, error) {
	sc := scratches.Get().(*Scratch)
	defer scratches.Put(sc)
	dst, in := []*Ciphertext{nil}, []*Ciphertext{src}
	if src == nil {
		in = nil
	}
	err := k.chunk(dst, in, []uint64{m}, refresh, sc)
	return dst[0], err
}

// Encrypt implements PublicKey: EncryptChunk of one.
func (k DGKPublicKey) Encrypt(m uint64) (*Ciphertext, error) { return k.one(nil, m, true) }

// AddPlain implements PublicKey: multiply by g^m (no fresh randomness;
// call Rerandomize if unlinkability is needed).
func (k DGKPublicKey) AddPlain(a *Ciphertext, m uint64) (*Ciphertext, error) {
	return k.one(a, m, false)
}

// Rerandomize implements PublicKey: multiply by h^r.
func (k DGKPublicKey) Rerandomize(a *Ciphertext) (*Ciphertext, error) { return k.one(a, 0, true) }

// NewScratch implements PublicKey.
func (k DGKPublicKey) NewScratch() *Scratch { return &Scratch{} }

// EncryptChunk implements PublicKey: g^m h^r for each plaintext, as
// 1 -> *g^m -> *h^r on the two-lane chunk routine.
func (k DGKPublicKey) EncryptChunk(dst []*Ciphertext, ms []uint64, sc *Scratch) error {
	return k.chunk(dst, nil, ms, true, sc)
}

// FoldChunk implements PublicKey on the two-lane chunk routine.
func (k DGKPublicKey) FoldChunk(dst, src []*Ciphertext, ms []uint64, refresh bool, sc *Scratch) error {
	if len(src) != len(dst) {
		return fmt.Errorf("ahe: %d outputs for %d ciphertexts", len(dst), len(src))
	}
	return k.chunk(dst, src, ms, refresh, sc)
}

// chunk sets dst[i] to src[i]·g^ms[i] (1·g^ms[i] for a nil src), times
// h^r for a fresh r when refresh holds, two lanes at a time. Each pair
// takes its g^m on the g-table's mul2 and, refreshing, pops one pooled
// h^r*R per lane: two hits multiply in with one mont.mul2. A lane the
// pool cannot serve runs its h^r chain on the h-table's mul2 beside the
// next lane that misses; until then its partial value waits in its dst.
// A miss left over at the end of the chunk pairs with a spare h^r*R,
// which is pushed onto the running pool for a later lane — or, with no
// pool running, runs alone. Hits and misses count lanes; a spare counts
// as a hit when a lane pops it. Once sc is warm and every dst[i] holds
// a ciphertext, a chunk allocates nothing but its spare.
func (k DGKPublicKey) chunk(dst, src []*Ciphertext, ms []uint64, refresh bool, sc *Scratch) error {
	if len(ms) != len(dst) {
		return fmt.Errorf("ahe: %d outputs for %d plaintexts", len(dst), len(ms))
	}
	fb := k.fb.ensure(k)
	m, w := fb.m, fb.m.width
	var pool *randPool
	if refresh {
		pool = fb.pool.Load()
	}
	buf := grow(&sc.acc, 3*w)
	a := [3]elem{buf[:w:w], buf[w : 2*w : 2*w], buf[2*w : 3*w : 3*w]}
	owed := -1 // a lane whose h^r is still owed
	for i := 0; i < len(dst); i += 2 {
		lanes := min(2, len(dst)-i)
		var e [2]*big.Int
		for l := range lanes {
			x := bigOne
			if src != nil {
				x = src[i+l].v
			}
			m.set(a[l], x)
			e[l] = k.reduceInto(&sc.e[l], ms[i+l])
		}
		a1 := a[1]
		if lanes == 1 {
			a1 = nil
		}
		fb.gTab.mul2(a[0], a1, e[0], e[1], sc)
		if refresh {
			var hit, hr, miss [2]elem
			nh, nm, at := 0, 0, 0
			for l := range lanes {
				var r elem
				if pool != nil {
					r = pool.get()
				}
				if r != nil {
					hit[nh], hr[nh] = a[l], r
					nh++
				} else {
					miss[nm], at = a[l], i+l
					nm++
				}
			}
			fb.poolHits.Add(uint64(nh))
			fb.poolMisses.Add(uint64(nm))
			if nh > 0 {
				m.mul2(hit[0], hit[0], hr[0], hit[1], hit[1], hr[1], sc)
			}
			switch {
			case nm == 2: // both lanes missed: a pair of their own
				fb.mulH2(miss[0], miss[1], sc)
			case nm == 1 && owed >= 0: // beside the owed lane
				m.set(a[2], dst[owed].v)
				fb.mulH2(miss[0], a[2], sc)
				m.get(dst[owed].v, a[2])
				owed = -1
			case nm == 1:
				owed = at
			}
		}
		for l := range lanes {
			m.get(outAt(dst, i+l), a[l])
		}
	}
	if owed < 0 {
		return nil
	}
	var spare elem
	if pool != nil {
		spare = make(elem, w)
		copy(spare, m.one)
	}
	m.set(a[0], dst[owed].v)
	fb.mulH2(a[0], spare, sc)
	m.get(dst[owed].v, a[0])
	if spare != nil {
		pool.push(&hrNode{hr: spare})
	}
	return nil
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
// mont.mul per element into a running product — the stray R^-1 it
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
	e := m.elems(2)
	prod, x := e[0], e[1]
	m.set(prod, bigOne)
	var sc Scratch
	for i := range out {
		v := new(big.Int).SetBytes(data[i*size : (i+1)*size])
		if v.Sign() == 0 || v.Cmp(k.n) >= 0 {
			return false
		}
		m.set(x, v)
		m.mul(prod, prod, x, &sc)
		out[i] = &Ciphertext{v: v}
	}
	p := new(big.Int)
	m.get(p, prod)
	return p.GCD(nil, nil, p, k.n).Cmp(bigOne) == 0
}

// bigOne is the shared unit constant for the Deserialize gcd checks.
var bigOne = big.NewInt(1)

// Decrypt returns c's plaintext in [0, 2^l): DecryptChunk of one.
func (k *DGKPrivateKey) Decrypt(c *Ciphertext) (uint64, error) {
	var m [1]uint64
	err := k.DecryptChunk(m[:], []*Ciphertext{c}, k.NewScratch())
	return m[0], err
}

// DecryptChunk implements PrivateKey via Pohlig–Hellman in the
// 2^l-order subgroup: recover m from c^vp = gamma^m mod p, 8 bits per
// round, two ciphertexts at a time (falling back to the bit-by-bit
// decryption for a value outside gamma's subgroup, so decryption is
// defined the same way on every input). Once sc is warm a chunk
// allocates nothing per ciphertext.
func (k *DGKPrivateKey) DecryptChunk(dst []uint64, cs []*Ciphertext, sc *Scratch) error {
	if len(dst) != len(cs) {
		return fmt.Errorf("ahe: %d plaintext slots for %d ciphertexts", len(dst), len(cs))
	}
	for i := 0; i < len(cs); i += 2 {
		var c1 *Ciphertext
		if i+1 < len(cs) {
			c1 = cs[i+1]
		}
		ms, ok := k.decryptPair(cs[i], c1, sc)
		for l := range min(2, len(cs)-i) {
			if dst[i+l] = ms[l]; !ok[l] {
				dst[i+l], _ = k.decryptNaive(cs[i+l])
			}
		}
	}
	return nil
}

// decryptPair recovers the plaintexts of c0 and c1 (nil: lane 0 alone)
// with one shared squaring chain per ciphertext and the per-key digit
// tables:
//
//	cm = c^vp = gamma^m mod p
//	round i digit: (cm * gamma^(-(m mod 2^(8i))))^(2^exps[i])
//	             = gamma^(d_i << (l - w_i))     -> table lookup
//
// The powers cm^(2^e) come from ONE ascending chain of l-w_0
// squarings snapshotted at each exps[i] (the naive path re-squares
// from scratch every bit — the O(l^2) inner loop this replaces), and
// the correction factors gamma^(-d_j << (exps[i]+8j)) are table rows.
// Total: ~l squarings + O((l/8)^2) multiplications mod p per
// ciphertext, every one on mont.mul2: cm leaves mont.exp2 in the
// Montgomery domain, squares and corrections keep it there, and the
// lookup is keyed by the Montgomery-form words, so nothing is converted
// back. The lanes take the same steps except for corrections, which
// run where either lane's digit is nonzero; a zero digit multiplies its
// lane by one. Every temporary lives in sc.
//
// ok[l] = false means lane l's value is not in gamma's 2^l-order
// subgroup (impossible for anything produced by Encrypt/Add/AddPlain/
// Rerandomize); the caller falls back to the bit-by-bit path so junk
// inputs keep their reference behavior.
func (k *DGKPrivateKey) decryptPair(c0, c1 *Ciphertext, sc *Scratch) (ms [2]uint64, ok [2]bool) {
	df := k.dec
	m, nd, w := df.m, len(df.exps), df.m.width
	buf := grow(&sc.dec, 2*(nd+1)*w)
	// at(l, i) is lane l's snapshot i, and at(l, nd) its chain; nil for
	// lane 1 when c1 is.
	at := func(l, i int) elem {
		if l == 1 && c1 == nil {
			return nil
		}
		j := l*(nd+1) + i
		return buf[j*w : (j+1)*w]
	}
	for l, c := range [2]*Ciphertext{c0, c1} {
		if c != nil {
			sc.q.QuoRem(c.v, k.p, &sc.x)
			m.set(at(l, nd), &sc.x)
			ok[l] = true
		}
	}
	cur0, cur1 := at(0, nd), at(1, nd)
	m.exp2(cur0, cur0, cur1, cur1, k.vp, df.vpWin, sc)

	// One squaring chain, snapshotted at each round's exponent
	// (exps is strictly decreasing; exps[nd-1] == 0).
	e := 0
	for i := nd - 1; i >= 0; i-- {
		for ; e < df.exps[i]; e++ {
			m.mul2(cur0, cur0, cur0, cur1, cur1, cur1, sc)
		}
		copy(at(0, i), cur0)
		copy(at(1, i), cur1)
	}

	if len(sc.key) < 8*w {
		sc.key = make([]byte, 8*w)
	}
	key := sc.key[:8*w]
	for i := 0; i < nd; i++ {
		z0, z1 := at(0, i), at(1, i) // read by this round only, so corrected in place
		for j := 0; j < i; j++ {
			d0, d1 := byte(ms[0]>>uint(dgkDecDigitBits*j)), byte(ms[1]>>uint(dgkDecDigitBits*j))
			if d0 == 0 && d1 == 0 {
				continue
			}
			row := df.inv[df.exps[i]+dgkDecDigitBits*j]
			m.mul2(z0, z0, m.rowEntry(row, d0), z1, z1, m.rowEntry(row, d1), sc)
		}
		for l, z := range [2]elem{z0, z1} {
			if !ok[l] {
				continue
			}
			m.putKey(key, z)
			d, found := df.look[i][string(key)]
			ms[l] |= uint64(d) << uint(dgkDecDigitBits*i)
			ok[l] = found
		}
	}
	return ms, ok
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
