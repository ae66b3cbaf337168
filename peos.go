package shuffledp

import (
	"errors"
	"fmt"

	"shuffledp/internal/ahe"
	"shuffledp/internal/amplify"
	"shuffledp/internal/ldp"
	"shuffledp/internal/protocol"
	"shuffledp/internal/rng"
	"shuffledp/internal/secretshare"
)

// PEOSPlan is a concrete PEOS deployment configuration produced by
// PlanPEOS: the mechanism, its parameters, the fake-report budget, and
// the privacy it achieves against each adversary of §V.
type PEOSPlan struct {
	// Mechanism is "GRR" or "SOLH".
	Mechanism string
	// EpsilonLocal is the users' local budget — the guarantee that
	// survives even if the server corrupts ceil(r/2) or more shufflers
	// (adversary Adv_a; at r = 2, either one of them).
	EpsilonLocal float64
	// DPrime is the hashed-domain size (the domain size itself for
	// GRR).
	DPrime int
	// FakeReports is n_r, the number of uniform fake reports the
	// shufflers jointly contribute.
	FakeReports int
	// EpsilonServer is the guarantee against the server alone (Adv).
	EpsilonServer float64
	// EpsilonColludingUsers is the guarantee when every other user
	// colludes with the server (Adv_u).
	EpsilonColludingUsers float64
	// PredictedMSE is the analytic expected mean squared error.
	PredictedMSE float64

	d, n  int
	delta float64
}

// PlanPEOS searches for the utility-optimal PEOS configuration meeting
// the three §V adversary budgets (the §VI-D guideline):
//
//	eps1 — against the server (Adv),
//	eps2 — against the server + all other users (Adv_u),
//	eps3 — against the server + ceil(r/2) or more shufflers (Adv_a).
func PlanPEOS(eps1, eps2, eps3 float64, n, d int, delta float64) (*PEOSPlan, error) {
	if delta == 0 {
		delta = 1e-9
	}
	plan, err := amplify.PlanPEOS(amplify.Requirements{
		Eps1: eps1, Eps2: eps2, Eps3: eps3,
		D: d, N: n, Delta: delta,
	})
	if err != nil {
		return nil, fmt.Errorf("shuffledp: %w", err)
	}
	name := "SOLH"
	if plan.UseGRR {
		name = "GRR"
	}
	return &PEOSPlan{
		Mechanism:             name,
		EpsilonLocal:          plan.EpsL,
		DPrime:                plan.DPrime,
		FakeReports:           plan.NR,
		EpsilonServer:         plan.Achieved.EpsC,
		EpsilonColludingUsers: plan.Achieved.EpsS,
		PredictedMSE:          plan.Variance,
		d:                     d,
		n:                     n,
		delta:                 delta,
	}, nil
}

// String renders the plan for operators.
func (p *PEOSPlan) String() string {
	return fmt.Sprintf(
		"PEOS{%s, epsL=%.3f, d'=%d, fakes=%d | Adv: %.3f, Adv_u: %.3f, Adv_a: %.3f | MSE~%.3e}",
		p.Mechanism, p.EpsilonLocal, p.DPrime, p.FakeReports,
		p.EpsilonServer, p.EpsilonColludingUsers, p.EpsilonLocal, p.PredictedMSE)
}

// oracle instantiates the planned frequency oracle.
func (p *PEOSPlan) oracle() ldp.FrequencyOracle {
	if p.Mechanism == "GRR" {
		return ldp.NewGRR(p.d, p.EpsilonLocal)
	}
	return ldp.NewSOLH(p.d, p.DPrime, p.EpsilonLocal)
}

// PEOSResult is the outcome of a PEOS run.
type PEOSResult struct {
	// Estimates is the server's unbiased frequency estimate per value.
	Estimates []float64
	// CostReport summarizes per-party computation and communication.
	CostReport string
}

// PEOSRunConfig tunes RunPEOS.
type PEOSRunConfig struct {
	// Shufflers is r, the number of auxiliary servers (default 3).
	Shufflers int
	// KeyBits sizes the server's DGK modulus (default 1024; the paper
	// deploys 3072).
	KeyBits int
	// Seed drives the *simulation's* randomness. In this in-process
	// run all parties share one seeded source so results are
	// reproducible; a real deployment gives each party crypto/rand
	// (the protocol code itself is agnostic — see
	// internal/secretshare.Crypto).
	Seed uint64
}

// RunPEOS executes the full PEOS protocol (Algorithm 1) in process:
// users secret-share their randomized reports, shufflers add fake
// report shares and run the encrypted oblivious shuffle over real DGK
// ciphertexts, the server decrypts and estimates. values must lie in
// [0, d) used at planning time.
func RunPEOS(plan *PEOSPlan, values []int, cfg PEOSRunConfig) (*PEOSResult, error) {
	if plan == nil {
		return nil, errors.New("shuffledp: nil plan")
	}
	if cfg.Shufflers == 0 {
		cfg.Shufflers = 3
	}
	if cfg.KeyBits == 0 {
		cfg.KeyBits = 1024
	}
	if cfg.Seed == 0 {
		cfg.Seed = 0x9e05
	}
	key, err := ahe.GenerateDGK(cfg.KeyBits, 64)
	if err != nil {
		return nil, fmt.Errorf("shuffledp: key generation: %w", err)
	}
	var src secretshare.Source = rng.New(cfg.Seed)
	p, err := protocol.NewPEOS(plan.oracle(), cfg.Shufflers, plan.FakeReports, key, src)
	if err != nil {
		return nil, err
	}
	res, err := p.Run(values, rng.New(cfg.Seed+1))
	if err != nil {
		return nil, err
	}
	return &PEOSResult{
		Estimates:  res.Estimates,
		CostReport: res.Meter.String(),
	}, nil
}
