package hash

import (
	"math/bits"
	"sync/atomic"

	"shuffledp/internal/cpuid"
)

// Family is the seeded universal hash family H_seed : [2^32] -> [d'] used
// by the local-hashing frequency oracles. A user's LDP report carries
// the seed (the "chosen hash function"); the server re-evaluates H_seed
// on every candidate value during estimation, so the family is built to
// cost one multiply per (report, value) pair.
//
// Integer keys use Dietzfelbinger's multiply-add-shift scheme:
//
//	a, b   = xxh64(seed, 0), xxh64(seed, 1)   once per report
//	h      = a*pi(v) + b  mod 2^64            pi a fixed bijection on 32-bit keys
//	bucket = floor((h >> 32) * d' / 2^32)
//
// For a and b uniform over 64-bit words the top 32 bits of h are
// strongly universal over 32-bit keys: for any two distinct keys the
// pair of top halves is exactly uniform on [2^32]^2 (Dietzfelbinger
// 1996; 64 >= 32 + 32 - 1 bits of state). The multiply-high range
// reduction then splits [2^32] into d' classes whose sizes differ by at
// most one, so (H(u), H(v)) is pairwise uniform to within 2^-32 per
// bucket for d' <= 2^31 — the property the unbiasedness and variance
// of local hashing need. (a, b) come from the report's 32-bit seed
// through xxHash64 used as a PRG, the same assumption any 32-bit-seeded
// family makes.
//
// pi is public and carries no security weight. A bare a*v + b maps the
// arithmetic progression u, u+s, u+2s to another arithmetic progression
// of hashes, so "u and u+s collide" would all but imply "u+2s collides
// too" and the estimates of evenly spaced values would be strongly
// correlated. Scrambling the key first leaves pairwise uniformity
// untouched (pi is a bijection) and breaks that structure for the
// index-shaped domains the oracles use.
//
// Family is stateless and safe for concurrent use.
type Family struct {
	// OutputSize is d', the size of the hashed domain, in [2, 2^31].
	OutputSize int
}

// MaxOutputSize is the largest d' the family supports: (h >> 32) * d'
// must fit in 64 bits with the 2^-32 bucket-bias bound intact.
const MaxOutputSize = 1 << 31

// MaxKeys is the size of the integer key space: Hash and CountSupport
// are defined for values in [0, MaxKeys).
const MaxKeys = 1 << 32

// NewFamily returns the hash family with output domain [0, outputSize).
// It panics if outputSize < 2 (a 1-bucket hash carries no information)
// or outputSize > MaxOutputSize.
func NewFamily(outputSize int) Family {
	if outputSize < 2 {
		panic("hash: family output size must be >= 2")
	}
	if uint64(outputSize) > MaxOutputSize {
		panic("hash: family output size must be <= 2^31")
	}
	return Family{OutputSize: outputSize}
}

// scramble is pi: a fixed bijection on 32-bit keys (xor-shifts and odd
// multiplies are each invertible mod 2^32; the constants are the
// murmur3 finalizer's).
func scramble(v uint32) uint64 {
	v ^= v >> 16
	v *= 0x85ebca6b
	v ^= v >> 13
	v *= 0xc2b2ae35
	v ^= v >> 16
	return uint64(v)
}

// Hash maps value into [0, OutputSize) under the function named by
// seed. Keys are 32-bit: value must lie in [0, MaxKeys). The two
// Sum64Uint64 calls are written out, here and in CountSupport, so they
// inline: a helper returning both is past the inliner's budget.
func (f Family) Hash(seed uint64, value uint64) int {
	a, b := Sum64Uint64(seed, 0), Sum64Uint64(seed, 1)
	h := a*scramble(uint32(value)) + b
	return int((h >> 32) * uint64(f.OutputSize) >> 32)
}

// sweepPair adds to counts[j], for each of two staged reports (a, c,
// w), one if its bucket test a*k + c <= w holds at k = keys[j]. It must
// not be inlined: inside CountSupport the compiler runs out of
// registers and keeps the key and the loop index on the stack, which
// costs more than the loop order gains (DESIGN.md §5). Its loop also
// runs about 12% faster when the function starts 32 bytes past a
// 64-byte line than on one; the linker places functions in source
// order, 32-byte aligned, so where it lands depends on everything
// linked before it (DESIGN.md §5).
//
//go:noinline
func sweepPair(keys []uint64, counts []int, a0, c0, w0, a1, c1, w1 uint64) {
	counts = counts[:len(keys)]
	for j, k := range keys {
		if a0*k+c0 <= w0 {
			counts[j]++
		}
		if a1*k+c1 <= w1 {
			counts[j]++
		}
	}
}

// supportChunk is how many reports the lane-layout loops stage per
// pass: the portable register loop and the sweep. The staged lanes live
// on the kernel's stack (3 KiB), so the kernel never allocates; the
// candidate loop streams the counts slice once per chunk, which at a
// few hundred reports per pass is noise next to the hash work.
const supportChunk = 128

// supportBlock is how many reports the AVX-512 register path stages per
// pass: ldp's whole lhBlock, 12 KiB of staged words on the kernel's
// stack, so hits8x8 runs once per eight candidates per block rather
// than per 128-report chunk.
const supportBlock = 512

// sweepMinOutputSize is the d' from which CountSupport sweeps key
// blocks under report pairs instead of counting each candidate in
// registers. A pair is a hit with probability about 1/d', and the
// sweep pays a mispredicted branch per hit: at d' = 16 that costs more
// than the sweep saves, near d' = 32 the two loops tie, and above it
// the sweep wins (DESIGN.md §5).
const sweepMinOutputSize = 32

// sweepBlock is how many scrambled keys the sweep holds on the stack
// per pass over the domain: 8 KiB, which stays in L1 while every
// report pair of a chunk walks it.
const sweepBlock = 1024

// lane is one staged report: h = a*k + b lands in the report's bucket
// iff a*k + c <= w, with c = b - lo and w = width - 1 (see
// CountSupport). Both loop orders read a lane's three words together.
type lane struct{ a, c, w uint64 }

// CountSupport is the batch kernel behind local-hashing estimation: for
// every candidate value v in [0, len(counts)) it adds to counts[v] the
// number of reports i with Hash(seeds[i], v) == ys[i]. It is exactly
// equivalent to calling Hash once per (report, value) pair, but
// structured for throughput:
//
//   - each report's (a, b) is expanded once per call, eight seeds per
//     pass on AVX-512 (expand);
//   - "bucket == y" is tested as a range check on the raw 64-bit h —
//     bucket(h) equals y iff h >> 32 lies in
//     [ceil(y*2^32/d'), ceil((y+1)*2^32/d')) — with the lower bound
//     folded into the additive term, so the per-pair work is one
//     multiply, one add and one compare: a*k + (b - lo) <= width-1.
//     Below sweepMinOutputSize the bounds of all d' buckets are
//     divided out once per call into a table; from it on they divide
//     by d' per report through a Divisor, without a hardware division;
//   - the loop order follows the hit rate, about 1/d'. Below
//     sweepMinOutputSize the candidates are counted without a branch:
//     on AVX-512 a block of up to supportBlock reports is staged
//     straight into the arrays hits8x8 reads, eight candidates against
//     eight reports per pass, else 128-report chunks of lanes take
//     three candidates under each lane load. At or above it, the
//     scrambled keys pi(v) of a block of the domain are computed once
//     per 128-report chunk and swept under two reports at a time; a
//     hit is rare enough that a predicted branch around counts[v]++ is
//     cheaper than counting every pair.
//
// The kernel performs zero heap allocations. Every ys[i] must lie in
// [0, OutputSize), and len(counts) must not exceed MaxKeys.
func (f Family) CountSupport(seeds, ys []uint64, counts []int) {
	if len(seeds) != len(ys) {
		panic("hash: CountSupport lanes have mismatched lengths")
	}
	m := uint64(f.OutputSize)
	if m < 2 || m > MaxOutputSize {
		panic("hash: family output size must be in [2, 2^31]")
	}
	if uint64(len(counts)) > MaxKeys {
		panic("hash: CountSupport domain exceeds the 32-bit key space")
	}
	bd := newBounds(m)
	if m < sweepMinOutputSize && supportAVX512 {
		countBlocksAVX512(seeds, ys, &bd, counts)
		return
	}
	var lanes [supportChunk]lane
	for base := 0; base < len(seeds); base += supportChunk {
		n := min(supportChunk, len(seeds)-base)
		ls := lanes[:n]
		stage(seeds[base:base+n], ys[base:base+n], ls, &bd)
		if m < sweepMinOutputSize {
			countCandidates(ls, counts)
			continue
		}
		var keys [sweepBlock]uint64
		for vb := 0; vb < len(counts); vb += sweepBlock {
			ks := keys[:min(sweepBlock, len(counts)-vb)]
			for j := range ks {
				ks[j] = scramble(uint32(vb + j))
			}
			cs := counts[vb : vb+len(ks)]
			for i := 0; i < len(ls); i += 2 {
				// An odd chunk's last report sweeps beside a=0, c=1,
				// w=0, which no key hits: 0*k + 1 > 0.
				l0, l1 := ls[i], lane{c: 1}
				if i+1 < len(ls) {
					l1 = ls[i+1]
				}
				sweepPair(ks, cs, l0.a, l0.c, l0.w, l1.a, l1.c, l1.w)
			}
		}
	}
}

// bounds is where CountSupport's staging reads a target's range test:
// lo and w = width - 1 of bucket y. Below sweepMinOutputSize it holds
// every bucket's pair, divided out once per call (2·d' divisions); from
// it on each report's pair is divided out as it is staged (two per
// report), since d' may be as large as 2^31.
type bounds struct {
	div   Divisor
	table bool
	lo, w [sweepMinOutputSize]uint64
}

// newBounds returns the bounds of the buckets of [0, m).
func newBounds(m uint64) bounds {
	bd := bounds{div: NewDivisor(m), table: m < sweepMinOutputSize}
	if bd.table {
		for y := range m {
			bd.lo[y], bd.w[y] = bd.divide(y)
		}
	}
	return bd
}

// of returns bucket y's lo and w from the table, and panics if y is no
// bucket.
func (bd *bounds) of(y uint64) (lo, w uint64) {
	if y >= bd.div.m {
		panic(badTarget)
	}
	return bd.lo[y], bd.w[y]
}

// divide computes bucket y's lo and w, and panics if y is no bucket:
// bucket y is h in [lo, hi) with lo = ceil(y*2^32/m) << 32 and hi
// likewise for y+1 (2^64, wrapped to 0, for the last bucket); w =
// width-1 keeps that last bound representable.
func (bd *bounds) divide(y uint64) (lo, w uint64) {
	m := bd.div.m
	if y >= m {
		panic(badTarget)
	}
	l, _ := bd.div.DivMod(y<<32 + m - 1)
	h, _ := bd.div.DivMod((y+1)<<32 + m - 1)
	if work != nil {
		work.divisions.Add(2)
	}
	lo = l << 32
	return lo, h<<32 - lo - 1
}

const badTarget = "hash: CountSupport target outside [0, OutputSize)"

// work, when non-nil, tallies CountSupport's staging work: the seeds
// expand expands and the divisions bounds makes. Only the package's
// tests set it (export_test.go).
var work *stagingWork

type stagingWork struct{ expansions, divisions atomic.Int64 }

// expand sets a[i], b[i] = Sum64Uint64(seeds[i], 0), Sum64Uint64(seeds[i], 1),
// each report's multiply-add-shift coefficients (see Family): eight
// seeds per pass on expand8 where the CPU has AVX-512, and the last
// len(seeds) mod 8, or all of them elsewhere, one at a time.
func expand(seeds, a, b []uint64) {
	a, b = a[:len(seeds)], b[:len(seeds)]
	i := 0
	if supportAVX512 && len(seeds) >= 8 {
		i = len(seeds) &^ 7
		expand8(&seeds[0], &a[0], &b[0], i/8)
	}
	for ; i < len(seeds); i++ {
		s := seeds[i]
		a[i], b[i] = Sum64Uint64(s, 0), Sum64Uint64(s, 1)
	}
	if work != nil {
		work.expansions.Add(int64(len(seeds)))
	}
}

// stage fills ls with the lanes of the reports (seeds, ys).
func stage(seeds, ys []uint64, ls []lane, bd *bounds) {
	var a, b [supportChunk]uint64
	expand(seeds, a[:], b[:])
	for i, y := range ys {
		var lo, w uint64
		if bd.table {
			lo, w = bd.of(y)
		} else {
			lo, w = bd.divide(y)
		}
		ls[i] = lane{a: a[i], c: b[i] - lo, w: w}
	}
}

// countCandidates adds to each counts[v] the number of staged lanes
// whose bucket test holds at k = pi(v): candidates outer, lanes inner,
// three candidates at a time sharing each lane load (misses3). It is
// the register path where the CPU lacks AVX-512.
func countCandidates(lanes []lane, counts []int) {
	n := uint64(len(lanes))
	v := 0
	for ; v+3 <= len(counts); v += 3 {
		m0, m1, m2 := misses3(lanes, scramble(uint32(v)), scramble(uint32(v+1)), scramble(uint32(v+2)))
		cs := counts[v : v+3]
		cs[0] += int(n - m0)
		cs[1] += int(n - m1)
		cs[2] += int(n - m2)
	}
	for ; v < len(counts); v++ {
		k := scramble(uint32(v))
		var m uint64
		for _, l := range lanes {
			_, b := bits.Add64(l.a*k+l.c, ^l.w, 0)
			m += b
		}
		counts[v] += int(n - m)
	}
}

// misses3 returns, for each of three keys, how many lanes' bucket
// tests fail there. A test a*k + c <= w fails iff a*k + c + ^w carries
// out of 64 bits, and the carry adds into the count without a branch.
// The three keys, three counts, the loop's pointer and count, ^w and
// the products fill the 13 registers amd64 code has free, so the loop
// touches the stack not once. It must not be inlined, and it takes no
// fourth key: either way the compiler spills a key or a count inside
// the loop (DESIGN.md §5).
//
//go:noinline
func misses3(lanes []lane, k0, k1, k2 uint64) (m0, m1, m2 uint64) {
	for _, l := range lanes {
		nw := ^l.w
		var b uint64
		_, b = bits.Add64(l.a*k0+l.c, nw, 0)
		m0, _ = bits.Add64(m0, 0, b)
		_, b = bits.Add64(l.a*k1+l.c, nw, 0)
		m1, _ = bits.Add64(m1, 0, b)
		_, b = bits.Add64(l.a*k2+l.c, nw, 0)
		m2, _ = bits.Add64(m2, 0, b)
	}
	return m0, m1, m2
}

// supportAVX512 is whether the register path runs on hits8x8 and the
// seed expansion on expand8, the AVX-512 kernels: on amd64 CPUs with
// AVX512F and AVX512DQ whose OS saves their state, chosen once and by
// nothing else (DESIGN.md §5). Tests switch it through export_test.go
// to check both kernels.
var supportAVX512 = cpuid.AVX512DQ

// laneBlock is up to supportBlock staged reports laid out one array per
// word, as hits8x8 reads them: one load fills a register with eight
// lanes' a, c or w.
type laneBlock struct{ a, c, w [supportBlock]uint64 }

// countBlocksAVX512 is CountSupport's register path on AVX-512: each
// block of up to supportBlock reports is expanded straight into the
// block's a and c arrays, its bounds read from the table, and counted.
func countBlocksAVX512(seeds, ys []uint64, bd *bounds, counts []int) {
	var blk laneBlock
	for base := 0; base < len(seeds); base += supportBlock {
		n := min(supportBlock, len(seeds)-base)
		c, w := blk.c[:n], blk.w[:n]
		expand(seeds[base:base+n], blk.a[:n], c)
		for i, y := range ys[base : base+n] {
			lo, wy := bd.of(y)
			c[i] -= lo
			w[i] = wy
		}
		blk.count(n, counts)
	}
}

// count adds to each counts[v] how many of the block's first n lanes
// key pi(v) hits, eight candidates against eight lanes per pass
// (hits8x8). The lanes are padded to whole groups of eight with lanes
// no key hits (a = 0, c = 1, w = 0, as in the sweep). The domain's
// last len(counts) mod 8 candidates count into a scratch group of
// eight.
func (blk *laneBlock) count(n int, counts []int) {
	groups := (n + 7) / 8
	for i := n; i < 8*groups; i++ {
		blk.a[i], blk.c[i], blk.w[i] = 0, 1, 0
	}
	var keys [8]uint64
	for v := 0; v < len(counts); v += 8 {
		for j := range keys {
			keys[j] = scramble(uint32(v + j))
		}
		if v+8 <= len(counts) {
			hits8x8(&blk.a[0], &blk.c[0], &blk.w[0], groups, &keys, &counts[v])
			continue
		}
		var tail [8]int
		hits8x8(&blk.a[0], &blk.c[0], &blk.w[0], groups, &keys, &tail[0])
		for j := range counts[v:] {
			counts[v+j] += tail[j]
		}
	}
}
