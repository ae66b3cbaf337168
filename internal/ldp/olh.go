package ldp

import (
	"math"

	"shuffledp/internal/hash"
	"shuffledp/internal/rng"
)

// LocalHash is the local-hashing mechanism family (§II-B "Local
// Hashing", §IV-B2): each user samples a hash function H (a 32-bit
// seed into hash.Family, a strongly universal multiply-add-shift family
// over 32-bit keys), computes H(v) in [0, d'), and reports
// GRR_{d'}(H(v)) together with the seed. The family bounds the domains:
// d <= 2^32 and d' <= 2^31.
//
// Two named instantiations differ only in how d' is chosen:
//
//   - OLH (Wang et al. 2017): d' = round(e^eps) + 1 minimizes the LDP
//     variance. Use NewOLH.
//   - SOLH (this paper, §IV-B): d' is chosen by the shuffle-model
//     analysis (internal/amplify.OptimalDPrime). Use NewSOLH with an
//     explicit d'.
type LocalHash struct {
	name   string
	d      int
	dPrime int
	eps    float64
	p      float64 // GRR_{d'} truthful probability
	family hash.Family
}

// NewOLH returns the LDP-optimal local-hashing oracle: d' = e^eps + 1
// rounded to the nearest integer, but never below 2.
func NewOLH(d int, eps float64) *LocalHash {
	validateDomain(d)
	validateEpsilon(eps)
	dPrime := int(math.Round(math.Exp(eps))) + 1
	if dPrime < 2 {
		dPrime = 2
	}
	lh := newLocalHash(d, dPrime, eps)
	lh.name = "OLH"
	return lh
}

// NewSOLH returns the paper's Shuffler-Optimal Local Hash with an
// explicitly chosen hashed-domain size dPrime (computed from the target
// central epsilon by internal/amplify).
func NewSOLH(d, dPrime int, eps float64) *LocalHash {
	validateDomain(d)
	validateEpsilon(eps)
	lh := newLocalHash(d, dPrime, eps)
	lh.name = "SOLH"
	return lh
}

func newLocalHash(d, dPrime int, eps float64) *LocalHash {
	if dPrime < 2 {
		panic("ldp: local hashing requires d' >= 2")
	}
	if uint64(d) > hash.MaxKeys {
		panic("ldp: local hashing requires d <= 2^32 (the hash family's key space)")
	}
	if dPrime > d {
		// Hashing into a domain larger than d wastes budget; clamp as
		// in the reference implementations.
		dPrime = d
	}
	if uint64(dPrime) > hash.MaxOutputSize {
		panic("ldp: local hashing requires d' <= 2^31 (the hash family's bucket-bias bound and the 64-bit report word)")
	}
	e := math.Exp(eps)
	return &LocalHash{
		d:      d,
		dPrime: dPrime,
		eps:    eps,
		p:      e / (e + float64(dPrime) - 1),
		family: hash.NewFamily(dPrime),
	}
}

// Name implements FrequencyOracle.
func (l *LocalHash) Name() string { return l.name }

// Domain implements FrequencyOracle.
func (l *LocalHash) Domain() int { return l.d }

// DPrime returns the hashed-domain size d'.
func (l *LocalHash) DPrime() int { return l.dPrime }

// EpsilonLocal implements FrequencyOracle.
func (l *LocalHash) EpsilonLocal() float64 { return l.eps }

// Randomize implements FrequencyOracle: report <H, GRR_{d'}(H(v))>.
func (l *LocalHash) Randomize(v int, r *rng.Rand) Report {
	validateValue(v, l.d)
	seed := uint32(r.Uint64())
	hv := l.family.Hash(uint64(seed), uint64(v))
	y := hv
	if !r.Bernoulli(l.p) {
		y = r.Intn(l.dPrime - 1)
		if y >= hv {
			y++
		}
	}
	return Report{Seed: seed, Value: y}
}

// NewAggregator implements FrequencyOracle. The total server-side cost
// is still the O(n*d) hash evaluations of the paper's Table II
// discussion, but the accumulator stages reports into blocks and folds
// each block into per-value support counts through the zero-allocation
// hash.Family.CountSupport kernel, so the work parallelizes across
// shard aggregators (see AggregateParallel) and the memory footprint is
// O(d + block) instead of O(n). Estimates is Equation (3): the support
// count of v is |{i : H_i(v) = y_i}|, calibrated with p and q = 1/d'.
func (l *LocalHash) NewAggregator() Aggregator {
	return newAccumulator(l, kindLocalHash, l.dPrime, l.p)
}

// Variance implements FrequencyOracle: Equation (4),
// Var = (e^eps + d' - 1)^2 / (n (e^eps - 1)^2 (d' - 1)).
func (l *LocalHash) Variance(n int) float64 {
	e := math.Exp(l.eps)
	dp := float64(l.dPrime)
	return (e + dp - 1) * (e + dp - 1) /
		(float64(n) * (e - 1) * (e - 1) * (dp - 1))
}
