// Package experiment reproduces the paper's evaluation (§VII): the
// method registry that parameterizes every competitor at a target
// central budget, and one runner per table/figure — Table I
// (amplification bounds), Figure 3 (MSE on IPUMS), Table II (SOLH vs
// RAP_R on Kosarak), Figure 4 (succinct-histogram precision on AOL),
// and Table III (SS vs PEOS protocol costs).
package experiment

import (
	"errors"
	"fmt"
	"math"

	"shuffledp/internal/amplify"
	"shuffledp/internal/ldp"
	"shuffledp/internal/rng"
)

// Method is one competitor at a fixed central budget: a simulator
// drawing estimate vectors from the mechanism's exact sampling
// distribution plus its analytic expected MSE where closed-form.
type Method struct {
	// Name is the label used in the paper's figures.
	Name string
	// Simulate draws one frequency-estimate vector given the true
	// counts.
	Simulate func(trueCounts []int, r *rng.Rand) []float64
	// AnalyticMSE is the closed-form expected MSE (NaN when none
	// exists, e.g. Base depends on the data).
	AnalyticMSE float64
	// EpsL is the local budget spent (0 where not applicable).
	EpsL float64
	// DPrime is the hashed-domain size for local-hashing methods.
	DPrime int
}

// MethodNames lists the Figure 3 lineup in plot order.
var MethodNames = []string{"Base", "OLH", "Had", "SH", "SOLH", "AUE", "RAP", "RAP_R", "Lap"}

// NewMethod builds one named method at central budget epsC for n users
// over domain size d. The amplification inversions follow §IV; methods
// below their amplification threshold fall back to epsL = epsC exactly
// as the paper describes for SH ("when epsC < sqrt(...), epsL = epsC").
func NewMethod(name string, epsC, delta float64, n, d int) (Method, error) {
	if epsC <= 0 {
		return Method{}, errors.New("experiment: epsC must be > 0")
	}
	switch name {
	case "Base":
		return Method{
			Name:        "Base",
			Simulate:    func(tc []int, r *rng.Rand) []float64 { return ldp.BaseEstimates(len(tc)) },
			AnalyticMSE: math.NaN(),
		}, nil

	case "Lap":
		return Method{
			Name: "Lap",
			Simulate: func(tc []int, r *rng.Rand) []float64 {
				return ldp.SimulateLaplace(tc, epsC, r)
			},
			AnalyticMSE: 8 / (epsC * epsC * float64(n) * float64(n)),
		}, nil

	case "OLH":
		fo := ldp.NewOLH(d, epsC)
		return simMethod("OLH", fo, n), nil

	case "Had":
		return simMethod("Had", ldp.NewHadamard(epsC), n), nil

	case "SH":
		// GRR + shuffling [9]; no amplification below the threshold.
		plan, err := amplify.PlanShuffle(epsC, d, n, delta, amplify.GRR)
		if err != nil {
			if !errors.Is(err, amplify.ErrNoAmplification) {
				return Method{}, err
			}
			plan.EpsL = epsC
		}
		fo := ldp.NewGRR(d, plan.EpsL)
		return simMethod("SH", fo, n), nil

	case "SOLH":
		plan, err := amplify.PlanShuffle(epsC, d, n, delta, amplify.SOLH)
		if err != nil {
			if !errors.Is(err, amplify.ErrNoAmplification) {
				return Method{}, err
			}
			// Degenerate regime (tiny m): no amplification possible;
			// run OLH at the central budget.
			fo := ldp.NewOLH(d, epsC)
			return simMethod("SOLH", fo, n), nil
		}
		fo := ldp.NewSOLH(d, plan.DPrime, plan.EpsL)
		return simMethod("SOLH", fo, n), nil

	case "SOLHFixed": // used by Table II's fixed-d' ablation via NewSOLHFixed
		return Method{}, errors.New("experiment: use NewSOLHFixed for fixed-d' SOLH")

	case "AUE":
		return simMethod("AUE", ldp.NewAUE(epsC, delta, n), n), nil

	case "RAP":
		epsL, err := amplify.LocalEpsilonUnary(epsC, n, delta)
		if err != nil {
			if !errors.Is(err, amplify.ErrNoAmplification) {
				return Method{}, err
			}
			epsL = epsC
		}
		return simMethod("RAP", ldp.NewRAP(epsL), n), nil

	case "RAP_R":
		// Removal-LDP variant: equivalent to RAP at 2*epsC (§IV-B4).
		eq := 2 * epsC
		epsL, err := amplify.LocalEpsilonUnary(eq, n, delta)
		if err != nil {
			if !errors.Is(err, amplify.ErrNoAmplification) {
				return Method{}, err
			}
			epsL = eq
		}
		return simMethod("RAP_R", ldp.NewRAP(epsL), n), nil

	default:
		return Method{}, fmt.Errorf("experiment: unknown method %q", name)
	}
}

// NewSOLHFixed builds SOLH at an explicitly fixed d' (the Table II
// ablation: "sub-optimal choice of d' makes SOLH less accurate").
func NewSOLHFixed(epsC, delta float64, n, d, dPrime int) (Method, error) {
	epsL, err := amplify.LocalEpsilonSOLH(epsC, dPrime, n, delta)
	if err != nil {
		return Method{}, err
	}
	fo := ldp.NewSOLH(d, dPrime, epsL)
	m := simMethod(fmt.Sprintf("SOLH(d'=%d)", dPrime), fo, n)
	return m, nil
}

// simMethod wraps a concrete mechanism as a Method.
func simMethod(name string, mech ldp.Mechanism, n int) Method {
	m := Method{
		Name: name,
		Simulate: func(tc []int, r *rng.Rand) []float64 {
			return ldp.SimulateEstimates(mech, tc, r)
		},
		AnalyticMSE: mech.Variance(n),
		EpsL:        mech.EpsilonLocal(),
	}
	if lh, ok := mech.(*ldp.LocalHash); ok {
		m.DPrime = lh.DPrime()
	}
	return m
}

// MeanMSE runs a method for `trials` independent draws and averages the
// MSE against the truth.
func MeanMSE(m Method, trueCounts []int, truth []float64, trials int, r *rng.Rand) float64 {
	if trials < 1 {
		panic("experiment: trials must be >= 1")
	}
	var sum float64
	for i := 0; i < trials; i++ {
		sum += ldp.MSE(truth, m.Simulate(trueCounts, r))
	}
	return sum / float64(trials)
}
