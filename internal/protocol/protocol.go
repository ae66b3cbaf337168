// Package protocol implements the paper's data-collection protocols
// end to end:
//
//   - PlainShuffle: the basic shuffler model (§III-B) — one trusted
//     shuffler permutes the users' LDP reports.
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
	"errors"
	"fmt"

	"shuffledp/internal/ldp"
	"shuffledp/internal/rng"
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

// PlainShuffle runs the basic shuffle model: each user randomizes with
// fo, a single shuffler permutes, the server estimates. This is the
// "SH"/"SOLH" setting of §III-B/§IV evaluated end to end.
func PlainShuffle(fo ldp.FrequencyOracle, values []int, r *rng.Rand) (*Result, error) {
	if fo == nil {
		return nil, errors.New("protocol: nil oracle")
	}
	meter := &transport.Meter{}
	reports := make([]ldp.Report, len(values))
	meter.Track(PartyUsers, func() {
		for i, v := range values {
			reports[i] = fo.Randomize(v, r)
		}
	})
	shuffler := ShufflerName(0)
	meter.Track(shuffler, func() {
		r.Shuffle(len(reports), func(i, j int) {
			reports[i], reports[j] = reports[j], reports[i]
		})
	})
	// Report size: one 64-bit word for GRR/hashing oracles.
	meter.Send(PartyUsers, shuffler, 8*len(reports))
	meter.Send(shuffler, PartyServer, 8*len(reports))
	var est []float64
	meter.Track(PartyServer, func() {
		est = Estimate(fo, reports, len(values), 0)
	})
	return &Result{Estimates: est, Reports: reports, Meter: meter}, nil
}
