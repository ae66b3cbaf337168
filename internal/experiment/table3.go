package experiment

import (
	"fmt"
	"strings"
	"time"

	"shuffledp/internal/ahe"
	"shuffledp/internal/ldp"
	"shuffledp/internal/protocol"
	"shuffledp/internal/rng"
	"shuffledp/internal/transport"
)

// CostRow is one protocol column of Table III: per-party computation
// and communication. User costs are per user; shuffler costs are the
// average across the r shufflers.
type CostRow struct {
	Protocol string
	R        int
	N        int

	UserCompMS    float64 // per user, milliseconds
	UserCommBytes int64   // per user

	AuxCompSec   float64 // per shuffler, seconds
	AuxCommBytes int64   // per shuffler (sent)

	ServerCompSec   float64
	ServerCommBytes int64 // received
}

// Table3Config parameterizes the overhead measurement. The paper runs
// n = 10^6 with DGK-3072; that takes hours of pure exponentiation on a
// laptop, so the default scales n down and documents the knobs — costs
// scale linearly in n (§VII-D: "both methods scale with n + nr").
type Table3Config struct {
	// N is the number of users.
	N int
	// NR is the number of fake reports.
	NR int
	// Rs lists the shuffler counts to measure (paper: 3 and 7).
	Rs []int
	// KeyBits sizes the DGK modulus (paper: 3072).
	KeyBits int
	// DPrime/EpsL parameterize the SOLH oracle (64-bit reports).
	DPrime int
	EpsL   float64
	Seed   uint64
	// FastShuffle measures PEOS under the paper's cost model (no
	// per-element rerandomization; see oblivious.Config).
	FastShuffle bool
}

// DefaultTable3Config returns a laptop-scale configuration.
func DefaultTable3Config() Table3Config {
	return Table3Config{
		N:       2000,
		NR:      200,
		Rs:      []int{3, 7},
		KeyBits: 1024,
		DPrime:  16,
		EpsL:    2,
		Seed:    4,
	}
}

// Table3 measures SS and PEOS costs for each configured r. It runs the
// real protocols (real DGK, real ECIES onions, real oblivious shuffle)
// and reads the per-party accounts from the transport.Meter.
func Table3(cfg Table3Config) ([]CostRow, error) {
	if cfg.N < 1 {
		return nil, fmt.Errorf("experiment: N must be >= 1")
	}
	// One key pair reused across runs: generation is not part of the
	// measured protocol cost.
	key, err := ahe.GenerateDGK(cfg.KeyBits, 64)
	if err != nil {
		return nil, err
	}
	values := make([]int, cfg.N)
	for i := range values {
		values[i] = i % 64
	}
	d := 64
	var rows []CostRow
	for _, r := range cfg.Rs {
		fo := ldp.NewSOLH(d, cfg.DPrime, cfg.EpsL)

		ss, err := protocol.NewSS(fo, r, cfg.NR)
		if err != nil {
			return nil, err
		}
		ssRes, err := ss.Run(values, rng.New(cfg.Seed))
		if err != nil {
			return nil, err
		}
		rows = append(rows, costRow("SS", r, cfg.N, ssRes.Meter))

		peos, err := protocol.NewPEOS(fo, r, cfg.NR, key, rng.New(cfg.Seed+1))
		if err != nil {
			return nil, err
		}
		peos.FastShuffle = cfg.FastShuffle
		peosRes, err := peos.Run(values, rng.New(cfg.Seed+2))
		if err != nil {
			return nil, err
		}
		rows = append(rows, costRow("PEOS", r, cfg.N, peosRes.Meter))
	}
	return rows, nil
}

func costRow(name string, r, n int, meter *transport.Meter) CostRow {
	row := CostRow{Protocol: name, R: r, N: n}
	users := meter.Stats(protocol.PartyUsers)
	row.UserCompMS = float64(users.CPU.Microseconds()) / 1000 / float64(n)
	row.UserCommBytes = users.SentBytes / int64(n)
	var auxCPU time.Duration
	var auxSent int64
	for j := 0; j < r; j++ {
		s := meter.Stats(protocol.ShufflerName(j))
		auxCPU += s.CPU
		auxSent += s.SentBytes
	}
	row.AuxCompSec = auxCPU.Seconds() / float64(r)
	row.AuxCommBytes = auxSent / int64(r)
	srv := meter.Stats(protocol.PartyServer)
	row.ServerCompSec = srv.CPU.Seconds()
	row.ServerCommBytes = srv.RecvBytes
	return row
}

// FormatTable3 renders the cost rows like the paper's Table III.
func FormatTable3(rows []CostRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %3s %10s | %14s %14s | %12s %12s | %12s %12s\n",
		"protocol", "r", "n",
		"user comp(ms)", "user comm(B)",
		"aux comp(s)", "aux comm(B)",
		"srv comp(s)", "srv comm(B)")
	for _, row := range rows {
		fmt.Fprintf(&b, "%-10s %3d %10d | %14.3f %14d | %12.3f %12d | %12.3f %12d\n",
			row.Protocol, row.R, row.N,
			row.UserCompMS, row.UserCommBytes,
			row.AuxCompSec, row.AuxCommBytes,
			row.ServerCompSec, row.ServerCommBytes)
	}
	return b.String()
}
