// Package shuffledp is a Go implementation of the shuffle model of
// differential privacy as described in:
//
//	Tianhao Wang, Bolin Ding, Min Xu, Zhicong Huang, Cheng Hong,
//	Jingren Zhou, Ninghui Li, Somesh Jha.
//	"Improving Utility and Security of the Shuffler-based Differential
//	Privacy." PVLDB 13(13), 2020. arXiv:1908.11515.
//
// It provides the paper's two contributions behind a task-level API:
//
//   - SOLH (Shuffler-Optimal Local Hash), a frequency oracle whose
//     utility in the shuffle model does not degrade with the domain
//     size — see EstimateHistogram.
//   - PEOS (Private Encrypted Oblivious Shuffle), a multi-shuffler
//     protocol that keeps its guarantees under user–server collusion,
//     partial shuffler–server collusion, and data-poisoning by
//     shufflers — see PlanPEOS and RunPEOS.
//
// Everything is implemented from scratch on the Go standard library:
// the LDP frequency-oracle family, privacy-amplification analysis,
// additive secret sharing, DGK additively homomorphic encryption,
// hybrid EC onion encryption, the resharing-based oblivious shuffle,
// and the TreeHist succinct-histogram algorithm (see FrequentStrings).
// DESIGN.md maps each subsystem to its package; EXPERIMENTS.md records
// the reproduction of every table and figure in the paper's evaluation.
package shuffledp

import (
	"errors"
	"fmt"

	"shuffledp/internal/amplify"
	"shuffledp/internal/composition"
	"shuffledp/internal/dataset"
	"shuffledp/internal/ldp"
	"shuffledp/internal/rng"
	"shuffledp/internal/treehist"
)

// MechanismKind selects the frequency oracle used in the shuffle model.
type MechanismKind int

const (
	// Auto picks GRR or SOLH, whichever has lower predicted variance
	// at the target budget (§IV-B3 "Comparison of the Methods").
	Auto MechanismKind = iota
	// GRR forces generalized randomized response.
	GRR
	// SOLH forces the paper's Shuffler-Optimal Local Hash.
	SOLH
)

// String returns the mechanism's short name as used in the paper's
// figures.
func (k MechanismKind) String() string {
	switch k {
	case Auto:
		return "Auto"
	case GRR:
		return "GRR"
	case SOLH:
		return "SOLH"
	default:
		return fmt.Sprintf("MechanismKind(%d)", int(k))
	}
}

// DefaultSeed is the seed substituted when Options.Seed or
// FrequentStringsOptions.Seed is left at zero. Zero is a sentinel for
// "unset" — an explicit Seed of 0 is indistinguishable from the default
// — so callers that need a distinct reproducible run must pass a
// nonzero seed.
const DefaultSeed uint64 = 0x5eed

// shuffleStream is the rng substream id reserved for the report
// permutation. Randomization shards use ids 0, 1, 2, ... (one per
// ldp.ShardSize values), which can never reach it.
const shuffleStream = ^uint64(0)

// Options configures EstimateHistogram.
type Options struct {
	// EpsilonCentral is the (epsC, Delta)-DP guarantee the shuffled
	// output must satisfy against the server.
	EpsilonCentral float64
	// Delta is the DP failure probability (default 1e-9, the paper's
	// setting).
	Delta float64
	// Mechanism picks the oracle (default Auto).
	Mechanism MechanismKind
	// Seed makes the run reproducible. Zero is a sentinel meaning
	// "unset" and selects DefaultSeed; see DefaultSeed for the
	// consequence.
	Seed uint64
	// Concurrency caps the number of worker goroutines used to fan out
	// randomization and aggregation; values < 1 use GOMAXPROCS. For a
	// fixed Seed the result is identical regardless of Concurrency.
	Concurrency int
}

func (o *Options) setDefaults() {
	if o.Delta == 0 {
		o.Delta = 1e-9
	}
	if o.Seed == 0 {
		o.Seed = DefaultSeed
	}
}

// HistogramResult is the outcome of a shuffle-model estimation.
type HistogramResult struct {
	// Estimates is the unbiased frequency estimate per value.
	Estimates []float64
	// Mechanism is the oracle that was used ("GRR" or "SOLH").
	Mechanism string
	// EpsilonLocal is the local budget each user's report satisfies on
	// its own (protection against everyone, including the shuffler).
	EpsilonLocal float64
	// DPrime is the hashed-domain size (0 for GRR).
	DPrime int
	// PredictedMSE is the analytic expected mean squared error.
	PredictedMSE float64
}

// EstimateHistogram runs the complete shuffle-model pipeline in
// process: parameterize the mechanism for the target central budget
// (amplify.PlanShuffle: the inverted Theorem 3 / GRR bound, or the
// oracle at the target itself where that has less variance), randomize
// every user's value,
// shuffle, and estimate. values must lie in [0, d).
//
// This is the single-shuffler trust model of §III; use RunPEOS for the
// hardened multi-shuffler protocol.
func EstimateHistogram(values []int, d int, opt Options) (*HistogramResult, error) {
	opt.setDefaults()
	n := len(values)
	if n < 2 {
		return nil, errors.New("shuffledp: need at least 2 users")
	}
	if d < 2 {
		return nil, errors.New("shuffledp: domain size must be >= 2")
	}
	fo, err := chooseOracle(opt.Mechanism, opt.EpsilonCentral, opt.Delta, n, d)
	if err != nil {
		return nil, err
	}
	for _, v := range values {
		if v < 0 || v >= d {
			return nil, fmt.Errorf("shuffledp: value %d outside [0, %d)", v, d)
		}
	}
	// Randomization and aggregation fan out over Concurrency workers;
	// shard substreams keep the result a pure function of Seed (see
	// internal/ldp/parallel.go).
	reports := ldp.RandomizeParallel(fo, values, opt.Seed, opt.Concurrency)
	// The shuffle: estimation is order-invariant, but permute anyway so
	// the reports slice faithfully models what the server receives. The
	// permutation has its own substream so it cannot perturb the
	// randomization streams.
	shuf := rng.Substream(opt.Seed, shuffleStream)
	shuf.Shuffle(len(reports), func(i, j int) {
		reports[i], reports[j] = reports[j], reports[i]
	})
	agg := ldp.AggregateParallel(fo, reports, opt.Concurrency)
	res := &HistogramResult{
		Estimates:    agg.Estimates(),
		Mechanism:    fo.Name(),
		EpsilonLocal: fo.EpsilonLocal(),
		PredictedMSE: fo.Variance(n),
	}
	if lh, ok := fo.(*ldp.LocalHash); ok {
		res.DPrime = lh.DPrime()
	}
	return res, nil
}

// chooseOracle implements the §IV-B3 mechanism choice at a target
// central budget.
func chooseOracle(kind MechanismKind, epsC, delta float64, n, d int) (ldp.FrequencyOracle, error) {
	var oracle amplify.Oracle
	switch kind {
	case Auto:
		oracle = amplify.Auto
	case GRR:
		oracle = amplify.GRR
	case SOLH:
		oracle = amplify.SOLH
	default:
		return nil, fmt.Errorf("shuffledp: unknown mechanism kind %v", kind)
	}
	plan, err := amplify.PlanShuffle(epsC, d, n, delta, oracle)
	if err != nil {
		return nil, fmt.Errorf("shuffledp: %w", err)
	}
	if plan.UseGRR {
		return ldp.NewGRR(d, plan.EpsL), nil
	}
	return ldp.NewSOLH(d, plan.DPrime, plan.EpsL), nil
}

// AmplifiedEpsilon returns the central (epsC, delta)-DP guarantee that
// shuffling n users' epsL-LDP SOLH reports with hashed-domain size
// dPrime provides (Theorem 3). Use dPrime = d for GRR.
func AmplifiedEpsilon(epsL float64, dPrime, n int, delta float64) float64 {
	return amplify.CentralEpsilonSOLH(epsL, dPrime, n, delta)
}

// LocalEpsilonFor inverts Theorem 3: the local budget that achieves the
// target central budget, with the variance-optimal d' of Equation (5).
func LocalEpsilonFor(epsC float64, d, n int, delta float64) (epsL float64, dPrime int, err error) {
	dPrime = amplify.OptimalDPrime(amplify.BlanketM(epsC, n, delta), d)
	epsL, err = amplify.LocalEpsilonSOLH(epsC, dPrime, n, delta)
	return epsL, dPrime, err
}

// FrequentStringsOptions configures FrequentStrings.
type FrequentStringsOptions struct {
	// K is how many frequent strings to find (default 32).
	K int
	// RoundBits is the prefix-tree fan-out per round (default 8).
	RoundBits int
	// EpsilonCentral, Delta: the overall privacy budget, split across
	// rounds (defaults 1.0 and 1e-9).
	EpsilonCentral float64
	Delta          float64
	// Seed for reproducibility. Zero is a sentinel meaning "unset" and
	// selects DefaultSeed (the same constant EstimateHistogram uses).
	Seed uint64
	// Concurrency caps the per-round worker fan-out; values < 1 use
	// GOMAXPROCS. For a fixed Seed the result is identical regardless
	// of Concurrency.
	Concurrency int
}

// FrequentStrings finds the most frequent `bits`-bit strings among the
// users' values using TreeHist (§VII-C) with the SOLH frequency oracle
// in the shuffle model: all users participate in every round and the
// total budget is split across rounds by the better of basic and
// advanced composition (§V-B's "one can utilize composition theorems").
func FrequentStrings(values []uint64, bits int, opt FrequentStringsOptions) ([]uint64, error) {
	if opt.K == 0 {
		opt.K = 32
	}
	if opt.RoundBits == 0 {
		opt.RoundBits = 8
	}
	if opt.EpsilonCentral == 0 {
		opt.EpsilonCentral = 1
	}
	if opt.Delta == 0 {
		opt.Delta = 1e-9
	}
	if opt.Seed == 0 {
		opt.Seed = DefaultSeed
	}
	if bits%opt.RoundBits != 0 {
		return nil, errors.New("shuffledp: RoundBits must divide bits")
	}
	n := len(values)
	if n < 2 {
		return nil, errors.New("shuffledp: need at least 2 users")
	}
	rounds := bits / opt.RoundBits
	per, err := composition.MaxSplit(composition.Guarantee{
		Eps:   opt.EpsilonCentral,
		Delta: opt.Delta,
	}, rounds)
	if err != nil {
		return nil, fmt.Errorf("shuffledp: %w", err)
	}
	roundEps := per.Eps
	roundDelta := per.Delta
	// Each round draws a fresh sub-seed from a master stream (rounds run
	// sequentially, so the derivation order is fixed); within a round the
	// randomization and aggregation fan out over Concurrency workers with
	// the round seed's shard substreams, keeping the output independent
	// of the worker count.
	master := rng.Substream(opt.Seed, 0)
	estimate := func(vals []int, d int) []float64 {
		roundSeed := master.Uint64()
		fo, err := chooseOracle(SOLH, roundEps, roundDelta, n, d)
		if err != nil {
			// Unreachable: PlanShuffle refuses only n < 2, d < 2 or a
			// budget MaxSplit would not have split.
			panic(err)
		}
		return ldp.EstimateParallel(fo, vals, roundSeed, opt.Concurrency)
	}
	return treehist.Run(values, treehist.Config{
		Bits:      bits,
		RoundBits: opt.RoundBits,
		K:         opt.K,
		Estimate:  estimate,
	})
}

// SyntheticDataset generates a Zipf-distributed categorical dataset —
// the stand-in generator used throughout the examples and benchmarks
// (see DESIGN.md §2 for the calibration rationale).
func SyntheticDataset(n, d int, skew float64, seed uint64) []int {
	return dataset.Synthetic("synthetic", n, d, skew, seed).Values
}
