// Package ldp implements the locally-differentially-private frequency
// oracles the paper builds on (§II-B) and contributes (§IV): generalized
// randomized response (GRR), optimized local hashing (OLH), the paper's
// Shuffler-Optimal Local Hash (SOLH), Hadamard response, symmetric unary
// encoding (basic RAPPOR, "RAP"), the removal-LDP variant (RAP_R), and
// the appended-unary-encoding shuffle mechanism of Balcer–Cheu ("AUE").
//
// Every oracle implements FrequencyOracle: users call Randomize, the
// server feeds the reports into an Aggregator and reads unbiased
// frequency estimates back. Server side there is one design: a report
// adds to d integer support counts, by its oracle's kind, in the one
// accumulator (accumulator.go); counts become estimates through the
// oracle's Support{P, Q, U} and Support.Calibrate (Equations 2, 3, 6).
// Hadamard is the exception — its statistic is a signed sum per sampled
// row, read out by one fast Walsh–Hadamard transform instead of O(n*d)
// counting — and keeps its own aggregator. The package also provides the analytic
// variances of Wang et al. (USENIX Security 2017) that §IV-B3 builds on,
// and exact fast-path simulators used by the experiment harness to
// reproduce the paper's figures at n ~ 10^6 without materializing every
// report.
package ldp

import (
	"fmt"

	"shuffledp/internal/rng"
)

// Report is one randomized user report. Which fields are meaningful
// depends on the oracle:
//
//   - GRR: Value (a member of the value domain [0, d)).
//   - OLH / SOLH: Seed (the sampled hash function) and Value in [0, d').
//   - Hadamard: Seed (the sampled Hadamard row) and Value in {0, 1}.
//   - RAP / RAP_R / AUE: Bits (one bit — or increment count for AUE —
//     per domain element).
type Report struct {
	// Seed selects the user's random hash function (OLH/SOLH) or
	// Hadamard row index. The paper's prototype uses 4-byte seeds
	// (§VII-D); we keep 32 bits so a GRR/SOLH report packs into one
	// 64-bit word for secret sharing (see ReportWord).
	Seed uint32
	// Value is the perturbed report in the oracle's output domain.
	Value int
	// Bits is the perturbed vector for unary-encoding oracles.
	Bits []byte
}

// FrequencyOracle is the common interface of all mechanisms. A
// FrequencyOracle is immutable and safe for concurrent use; all
// randomness comes from the *rng.Rand passed in.
type FrequencyOracle interface {
	// Name returns the short method name used in the paper's figures
	// (e.g. "GRR", "SOLH", "RAP").
	Name() string
	// Domain returns d, the size of the users' value domain.
	Domain() int
	// EpsilonLocal returns the local privacy parameter epsilon_l the
	// mechanism satisfies (0 for AUE, which is not an LDP protocol —
	// see §IV-B4).
	EpsilonLocal() float64
	// Randomize perturbs a user's true value v in [0, Domain()).
	Randomize(v int, r *rng.Rand) Report
	// NewAggregator returns an empty server-side aggregator.
	NewAggregator() Aggregator
	// Variance returns the analytic per-value estimation variance for n
	// users with the mechanism's parameters, assuming rare values
	// (f_v ~ 0), as in §IV-B3.
	Variance(n int) float64
}

// Aggregator accumulates reports and produces unbiased frequency
// estimates. Aggregators are not safe for concurrent use; for parallel
// aggregation give each worker its own aggregator and combine them with
// Merge (see AggregateParallel).
type Aggregator interface {
	// Add ingests one report.
	Add(rep Report)
	// Count returns the number of reports ingested.
	Count() int
	// Estimates returns the unbiased estimate of every value's
	// frequency (summing to ~1). The slice is freshly allocated.
	Estimates() []float64
	// Merge folds all reports ingested by other into this aggregator,
	// leaving other drained (its further use is undefined). Both
	// aggregators must come from the same oracle; Merge panics on a
	// type or parameter mismatch. Because every aggregator accumulates
	// exactly representable integer statistics, a merged aggregator's
	// Estimates are bit-identical to a sequential aggregator fed the
	// same reports in any order.
	Merge(other Aggregator)
	// Clone returns an independent deep copy: the clone reports the
	// same Count and bit-identical Estimates, and mutating (Add,
	// Merge) either aggregator never affects the other. Clone is what
	// lets a sealed epoch be merged into a sliding-window estimate
	// without draining the epoch's own state (see internal/service).
	Clone() Aggregator
	// MarshalBinary serializes the aggregator's accumulated state into
	// the stable versioned layout of marshal.go (implementing
	// encoding.BinaryMarshaler), so epoch roots survive a restart of
	// the durable service (internal/store).
	MarshalBinary() ([]byte, error)
	// UnmarshalBinary replaces the receiver's state with a blob
	// written by MarshalBinary under the same oracle parameters
	// (implementing encoding.BinaryUnmarshaler). The restored
	// aggregator's Estimates are bit-identical to the marshaled one's;
	// a blob from a different oracle, parameterization, or a newer
	// format version is refused with an error (never a panic), the
	// latter wrapping ErrStateVersion.
	UnmarshalBinary(data []byte) error
}

// Histogram counts occurrences of each value in [0, d). It panics if a
// value is out of range — user input must be validated upstream.
func Histogram(values []int, d int) []int {
	h := make([]int, d)
	for _, v := range values {
		if v < 0 || v >= d {
			panic(fmt.Sprintf("ldp: value %d outside domain [0, %d)", v, d))
		}
		h[v]++
	}
	return h
}

// TrueFrequencies returns the exact frequency vector of values over [0, d).
func TrueFrequencies(values []int, d int) []float64 {
	h := Histogram(values, d)
	f := make([]float64, d)
	if len(values) == 0 {
		return f
	}
	n := float64(len(values))
	for v, c := range h {
		f[v] = float64(c) / n
	}
	return f
}

func validateDomain(d int) {
	if d < 2 {
		panic("ldp: domain size must be >= 2")
	}
}

func validateEpsilon(eps float64) {
	if eps <= 0 {
		panic("ldp: epsilon must be > 0")
	}
}

func validateValue(v, d int) {
	if v < 0 || v >= d {
		panic(fmt.Sprintf("ldp: value %d outside domain [0, %d)", v, d))
	}
}
