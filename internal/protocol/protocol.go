// Package protocol implements the paper's data-collection protocols
// end to end:
//
//   - SS: the sequential-shuffle first attempt (§VI-A1) — r shufflers
//     chained with onion encryption, each injecting nr/r fake reports.
//   - PEOS: the paper's proposal (§VI-A3, Algorithm 1) — secret-shared
//     reports, fake shares from every shuffler, encrypted oblivious
//     shuffle, AHE decryption at the server.
//
// All protocols end with the server computing unbiased frequency
// estimates (Equations (2)/(3), post-processed per Equation (6) when
// fakes are present), and account per-party costs in a
// transport.Meter for the Table III reproduction.
package protocol

import (
	"fmt"

	"shuffledp/internal/ldp"
	"shuffledp/internal/transport"
)

// Party names used in the cost accounting.
const (
	PartyUsers  = "users"
	PartyServer = "server"
)

// ShufflerName returns the meter name of shuffler j (matching
// internal/oblivious).
func ShufflerName(j int) string { return fmt.Sprintf("shuffler-%d", j) }

// Result is a protocol run's outcome.
type Result struct {
	// Estimates is the server's frequency estimate per value.
	Estimates []float64
	// Reports is the multiset of LDP reports the server observed
	// (users' + fakes, shuffled). Exposed for attack analyses.
	Reports []ldp.Report
	// Meter holds the per-party cost accounts.
	Meter *transport.Meter
}

// Estimate aggregates shuffled reports from n users plus nr uniform
// fakes and calibrates, subtracting the fakes' expected mass
// (generalized Equation 6; nr = 0 reduces to Equations (2)/(3)). Every
// protocol here estimates through it; the networked analyzer node
// (internal/cluster) keeps integer support counts instead, which merge
// exactly across collection rounds, and calibrates them with the same
// ldp.Support.Calibrate — which is why its estimates are bit-identical
// to the in-process runs.
func Estimate(fo ldp.FrequencyOracle, reports []ldp.Report, n, nr int) []float64 {
	s, _ := ldp.SupportOf(fo)
	return s.Calibrate(ldp.SupportCounts(fo, reports), n, nr)
}
