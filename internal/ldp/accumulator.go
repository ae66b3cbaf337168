package ldp

import "shuffledp/internal/hash"

// Support is what a count estimator needs to know about its
// randomizer: the probability that one report "supports" a fixed value
// v of the domain, by where the report came from.
//
//	         P                      Q             U
//	GRR      e^eps/(e^eps+d-1)      1/(e^eps+d-1) 1/d
//	OLH/SOLH e^eps/(e^eps+d'-1)     1/d'          1/d'
//	RAP(_R)  1-flip                 flip          -
//	Had      p                      1/2           -
//
// GRR and OLH/SOLH are the deployed oracles; the accumulator calibrates
// their counts. RAP(_R) and Had are Figure 3 baselines, which only the
// simulators sample: Hadamard's row is the support-count view of its
// signed reports ("support" = the sign matches H[a, v+1]). AUE has no
// Support: its blanket adds increments, not a second probability (see
// SimulateAUE).
type Support struct {
	// P is the probability that a user's report supports the user's
	// own value.
	P float64
	// Q is the probability that it supports any other fixed value.
	Q float64
	// U is the probability that a fake report drawn uniformly from the
	// oracle's report space (Algorithm 1) supports a fixed value. Zero
	// means the oracle has no PEOS estimator.
	U float64
}

// SupportOf returns the support probabilities of a mechanism, or
// ok=false for one without the (P, Q) structure.
func SupportOf(m Mechanism) (s Support, ok bool) {
	switch o := m.(type) {
	case *GRR:
		// The report space is [d], so u = 1/d and — because
		// p + (d-1)q = 1 — one fake adds exactly 1/d to every
		// calibrated estimate: the nr/(n*d) term of Equation (6).
		return Support{P: o.p, Q: o.q, U: 1 / float64(o.d)}, true
	case *LocalHash:
		// A fake is (seed, y) with y uniform on [d'], so u = q: the
		// estimator's q subtraction already absorbs uniform fakes and
		// Equation (6)'s correction vanishes (DESIGN.md §3).
		q := 1 / float64(o.dPrime)
		return Support{P: o.p, Q: q, U: q}, true
	case *Hadamard:
		return Support{P: o.p, Q: 0.5}, true
	case *UnaryEncoding:
		return Support{P: 1 - o.flip, Q: o.flip}, true
	}
	return Support{}, false
}

// Calibrate converts support counts over n user reports plus nr uniform
// fake reports into unbiased estimates of the users' frequencies — the
// generalized Equation (6),
//
//	f'_v = (n+nr)/n * f~_v - (nr/n) * (U-Q)/(P-Q),
//	f~_v = (C_v/(n+nr) - Q) / (P-Q),
//
// which at nr = 0 is Equations (2) and (3) bit for bit. Every
// server-side estimate in the repository — the protocols', the
// networked analyzer's, the simulators', and through calibrate the
// accumulator's — is this one computation. It panics on a Support that has no estimator for
// the reports: the zero Support, or fakes (nr > 0) with U = 0.
func (s Support) Calibrate(counts []int, n, nr int) []float64 {
	if s.P == s.Q || nr > 0 && s.U == 0 {
		panic("ldp: Support has no estimator for these reports")
	}
	scale := s.P - s.Q
	return calibrate(counts, n, nr, s.Q, scale, (s.U-s.Q)/scale)
}

// calibrate is Calibrate in the affine form the accumulator stores:
// f~_v = (C_v/(n+nr) - shift) / scale, each fake worth beta.
func calibrate(counts []int, n, nr int, shift, scale, beta float64) []float64 {
	est := make([]float64, len(counts))
	if n == 0 {
		return est
	}
	tf := float64(n + nr)
	nf := float64(n)
	grow, fake := tf/nf, float64(nr)/nf*beta
	for v, c := range counts {
		fTilde := (float64(c)/tf - shift) / scale
		est[v] = grow*fTilde - fake
	}
	return est
}

// lhBlock is how many staged local-hash reports the accumulator folds
// per kernel call: the seed/target lanes of one block are
// 2 * 8 B * lhBlock = 8 KiB, which bounds the staged memory. The kernel
// reads each lane once; what stays cache-resident while it walks the
// domain is its own 128-report chunk and, from d' = 32 on, its block of
// scrambled keys (DESIGN.md §5).
const lhBlock = 512

// countSupport is the kernel flush folds each staged block through. It
// is a variable only so the package's tests can count the (report,
// value) pairs it is handed (export_test.go); nothing else assigns it.
var countSupport = hash.Family.CountSupport

// countSpec is the immutable half of an accumulator: what its oracle
// told it. Two accumulators merge iff their specs are equal.
type countSpec struct {
	kind  byte    // state-header kind byte (marshal.go); selects how a report adds
	d     int     // domain size = number of counts
	aux   int     // header echo: local hashing's d'
	param float64 // header echo: the oracle's defining probability
	// Estimates are (C_v/n - shift) / scale, i.e. (q, p-q).
	shift, scale float64
}

// accumulator is the Aggregator of every FrequencyOracle: its
// sufficient statistic is d integer support counts. The only per-oracle
// code is how one report adds to the counts.
type accumulator struct {
	countSpec
	n      int
	counts []int // len d, allocated on first need
	// Local hashing stages reports here and folds them a block at a
	// time through the zero-allocation hash.Family.CountSupport kernel,
	// so the memory footprint is O(d + block) instead of O(n).
	seeds, ys []uint64
}

// newAccumulator returns fo's empty accumulator, calibrated by fo's
// Support.
func newAccumulator(fo FrequencyOracle, kind byte, aux int, param float64) *accumulator {
	s, _ := SupportOf(fo)
	return &accumulator{countSpec: countSpec{
		kind: kind, d: fo.Domain(), aux: aux, param: param,
		shift: s.Q, scale: s.P - s.Q,
	}}
}

// Add implements Aggregator.
func (a *accumulator) Add(rep Report) {
	if a.kind == kindLocalHash {
		// Report (seed, y) supports v iff H_seed(v) = y.
		if rep.Value < 0 || rep.Value >= a.aux {
			panic("ldp: local hash report outside [0, d')")
		}
		a.stage(uint64(rep.Seed), uint64(rep.Value))
	} else {
		// GRR: a report supports its value.
		validateValue(rep.Value, a.d)
		a.tally()[rep.Value]++
	}
	a.n++
}

// stage queues one local-hash report (seed, y), y in [0, d'), folding
// the block once it is full; the caller counts the report. Add and
// WordEncoder.AddWords both stage through it.
func (a *accumulator) stage(seed, y uint64) {
	a.seeds = append(a.seeds, seed)
	a.ys = append(a.ys, y)
	if len(a.seeds) >= lhBlock {
		a.flush()
	}
}

// tally returns the counts, allocating them on first need.
func (a *accumulator) tally() []int {
	if a.counts == nil {
		a.counts = make([]int, a.d)
	}
	return a.counts
}

// flush folds the staged block into the counts.
func (a *accumulator) flush() {
	if len(a.seeds) == 0 {
		return
	}
	countSupport(hash.NewFamily(a.aux), a.seeds, a.ys, a.tally())
	a.seeds = a.seeds[:0]
	a.ys = a.ys[:0]
}

// Count implements Aggregator.
func (a *accumulator) Count() int { return a.n }

// Merge implements Aggregator.
func (a *accumulator) Merge(other Aggregator) {
	o, ok := other.(*accumulator)
	if !ok || o.countSpec != a.countSpec {
		panic("ldp: merging incompatible aggregators")
	}
	a.flush()
	o.flush()
	if o.counts != nil {
		counts := a.tally()
		for v, c := range o.counts {
			counts[v] += c
		}
	}
	a.n += o.n
	o.counts, o.n = nil, 0
}

// Clone implements Aggregator. The staged block is flushed first so
// the clone shares no mutable slice with the original.
func (a *accumulator) Clone() Aggregator {
	a.flush()
	c := &accumulator{countSpec: a.countSpec, n: a.n}
	if a.counts != nil {
		c.counts = append([]int(nil), a.counts...)
	}
	return c
}

// Estimates implements Aggregator: Equations (2) and (3).
func (a *accumulator) Estimates() []float64 {
	a.flush()
	return calibrate(a.tally(), a.n, 0, a.shift, a.scale, 0)
}

// SupportCounts computes, for every value v in [0, d), how many of the
// given reports support v — the raw statistic behind Equations (2) and
// (3). It is the server-side aggregation used when reports arrive
// through a protocol (shuffled words) rather than an Aggregator, and
// runs them through the same accumulator.
func SupportCounts(fo FrequencyOracle, reports []Report) []int {
	a := fo.NewAggregator().(*accumulator)
	for _, rep := range reports {
		a.Add(rep)
	}
	a.flush()
	return a.tally()
}
