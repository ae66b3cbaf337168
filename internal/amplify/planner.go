package amplify

import (
	"errors"
	"fmt"
	"math"

	"shuffledp/internal/composition"
)

// The §VI-D deployment planner: "Given the desired privacy level
// eps1, eps2, eps3 against the three adversaries Adv, Adv_u, Adv_a ...
// we can numerically search the optimal configuration of n_r and eps_l.
// Finally, given eps_l, we can choose to use either GRR or SOLH."

// Requirements captures a deployment's inputs.
type Requirements struct {
	// Eps1 bounds the server's view (Adv).
	Eps1 float64
	// Eps2 bounds the server + colluding-users view (Adv_u).
	Eps2 float64
	// Eps3 bounds the view of the server with ceil(r/2) or more
	// shufflers (Adv_a; one shuffler at r = 2); this is the pure LDP
	// fallback, so EpsL <= Eps3.
	Eps3 float64
	// D is the value-domain size, N the number of users.
	D, N int
	// Delta is the (shared) failure probability.
	Delta float64
}

func (rq Requirements) validate() error {
	if rq.Eps1 <= 0 || rq.Eps2 <= 0 || rq.Eps3 <= 0 {
		return errors.New("amplify: all three epsilon targets must be > 0")
	}
	if rq.D < 2 {
		return errors.New("amplify: domain size must be >= 2")
	}
	if rq.N < 2 {
		return errors.New("amplify: need at least 2 users")
	}
	if rq.Delta <= 0 || rq.Delta >= 1 {
		return errors.New("amplify: delta must be in (0, 1)")
	}
	return nil
}

// Plan is a concrete configuration: a PEOS deployment (PlanPEOS,
// PlanContinual) or, with NR = 0, one shuffle of the basic model
// (PlanShuffle).
type Plan struct {
	// UseGRR selects the frequency oracle: GRR when true, SOLH when
	// false.
	UseGRR bool
	// DPrime is the hashed-domain size (equals D when UseGRR).
	DPrime int
	// EpsL is the local budget each user spends.
	EpsL float64
	// NR is the number of fake reports the shufflers contribute in
	// total.
	NR int
	// Achieved are the resulting guarantees against the three
	// adversaries.
	Achieved PEOSGuarantees
	// Variance is the predicted per-value estimation variance, at
	// f_v -> 0 (for a PEOS plan PEOSVariance, fakes included).
	Variance float64
}

// String renders the plan the way the paper discusses configurations.
// A basic-model plan (NR = 0) has no fakes and so no separate epsS.
func (p Plan) String() string {
	fo := "SOLH"
	if p.UseGRR {
		fo = "GRR"
	}
	if p.NR == 0 {
		return fmt.Sprintf("%s(d'=%d, epsL=%.4f) -> epsC=%.4f var=%.3e",
			fo, p.DPrime, p.EpsL, p.Achieved.EpsC, p.Variance)
	}
	return fmt.Sprintf("%s(d'=%d, epsL=%.4f) + nr=%d fakes -> epsC=%.4f epsS=%.4f var=%.3e",
		fo, p.DPrime, p.EpsL, p.NR, p.Achieved.EpsC, p.Achieved.EpsS, p.Variance)
}

// Oracle selects the frequency oracle PlanShuffle calibrates.
type Oracle int

const (
	// Auto picks GRR or SOLH by PreferGRR, whichever has the lower
	// variance at the target (§IV-B3 "Comparison of the Methods").
	Auto Oracle = iota
	// GRR forces generalized randomized response.
	GRR
	// SOLH forces SOLH with the optimal d' of Equation (5).
	SOLH
)

// PlanShuffle plans one shuffle of the basic model (§III, §IV-B3): the
// oracle, its d' and the local budget epsL at which n shuffled reports
// meet the central target (epsC, delta). n is the report count the
// guarantee is claimed at — the reports one release aggregates, not
// the whole population when the population is split into collections.
//
// It prices two candidates and returns the one with less variance. The
// amplified plan inverts the shuffle bound (Theorem 3, or the GRR
// bound) at n, so its Achieved.EpsC is that bound's forward value,
// which meets epsC up to rounding. The unamplified plan runs the oracle
// at epsL = epsC, which is already (epsC, 0)-DP after any shuffle, so
// its Achieved.EpsC is epsC exactly; it is the only candidate below the
// amplification threshold, and just above it often the better one. The
// plan has NR = 0, and Achieved.EpsS is epsL, since without fakes only
// the local randomizer protects a user whose peers collude with the
// server.
func PlanShuffle(epsC float64, d, n int, delta float64, oracle Oracle) (Plan, error) {
	if oracle != Auto && oracle != GRR && oracle != SOLH {
		return Plan{}, fmt.Errorf("amplify: unknown oracle %d", int(oracle))
	}
	if epsC <= 0 || d < 2 || n < 2 || delta <= 0 || delta >= 1 {
		return Plan{}, errors.New("amplify: PlanShuffle needs epsC > 0, d >= 2, n >= 2 and delta in (0, 1)")
	}
	p := planUnamplified(epsC, d, n, oracle)
	if amp, err := planAmplified(epsC, d, n, delta, oracle); err == nil && amp.Variance < p.Variance {
		p = amp
	}
	p.Achieved.EpsS = p.EpsL
	p.Achieved.EpsL = p.EpsL
	return p, nil
}

// planUnamplified is PlanShuffle's candidate at epsL = epsC: GRR over
// d, or SOLH at the d' that minimizes VarianceSOLHAt at
// m = e^epsC + d' - 1 (Auto takes the smaller variance of the two).
// With k = d' - 1 that variance is (k + e^epsC)^2 / k up to a constant,
// convex in k with its minimum at k = e^epsC, so the best d' is one of
// the two integers around e^epsC + 1, clamped to [2, d].
func planUnamplified(epsC float64, d, n int, oracle Oracle) Plan {
	eL := math.Exp(epsC)
	best := Plan{EpsL: epsC, Variance: math.Inf(1)}
	best.Achieved.EpsC = epsC
	if oracle != SOLH {
		md := eL - 1
		best.UseGRR, best.DPrime, best.Variance = true, d, (eL+float64(d)-2)/(float64(n)*md*md)
	}
	if oracle != GRR {
		k := int(math.Min(math.Floor(eL), float64(d)))
		for _, dPrime := range []int{k + 1, k + 2} {
			dPrime = min(dPrime, d)
			if v, _ := VarianceSOLHAt(eL+float64(dPrime)-1, dPrime, n); v < best.Variance {
				best.UseGRR, best.DPrime, best.Variance = false, dPrime, v
			}
		}
	}
	return best
}

// planAmplified is PlanShuffle's candidate that inverts the shuffle
// bound at n: the oracle by PreferGRR under Auto, d' by Equation (5)
// and epsL by Theorem 3 (or the GRR bound). It returns
// ErrNoAmplification (wrapped) when no positive epsL meets epsC at n.
func planAmplified(epsC float64, d, n int, delta float64, oracle Oracle) (Plan, error) {
	useGRR := oracle == GRR || oracle == Auto && PreferGRR(epsC, d, n, delta)
	p := Plan{UseGRR: useGRR, DPrime: d}
	var err error
	if useGRR {
		if p.EpsL, err = LocalEpsilonGRR(epsC, d, n, delta); err != nil {
			return Plan{}, err
		}
		p.Achieved.EpsC = CentralEpsilonGRR(p.EpsL, d, n, delta)
		p.Variance, err = VarianceGRR(epsC, d, n, delta)
	} else {
		m := BlanketM(epsC, n, delta)
		p.DPrime = OptimalDPrime(m, d)
		if p.EpsL, err = LocalEpsilonSOLH(epsC, p.DPrime, n, delta); err != nil {
			return Plan{}, err
		}
		p.Achieved.EpsC = CentralEpsilonSOLH(p.EpsL, p.DPrime, n, delta)
		p.Variance, err = VarianceSOLHAt(m, p.DPrime, n)
	}
	return p, err
}

// PlanPEOS searches nr, epsL, the oracle choice and (for SOLH) d' to
// minimize estimation variance subject to the three adversary budgets.
// The search is the numeric optimization §VI-D prescribes: for each
// candidate output-space size the minimal feasible nr is derived in
// closed form (and raised where the exact fakes-only view does not hold
// the closed form's epsS, fakesonly.go), epsL is capped at Eps3, and the
// variance is evaluated exactly.
func PlanPEOS(rq Requirements) (Plan, error) {
	if err := rq.validate(); err != nil {
		return Plan{}, err
	}
	best := Plan{Variance: math.Inf(1)}
	L := 14 * math.Log(2/rq.Delta)

	consider := func(outputSpace int, grr bool) {
		p, err := planAt(rq, outputSpace, grr, L)
		if err != nil {
			return
		}
		if p.Variance < best.Variance {
			best = p
		}
	}

	// GRR: output space fixed at d.
	consider(rq.D, true)
	// SOLH: sweep d' over a geometric grid plus the unconstrained
	// optimum's neighborhood.
	maxDPrime := rq.D
	seen := map[int]bool{}
	for dp := 2; dp <= maxDPrime; dp = dp*5/4 + 1 {
		seen[dp] = true
		consider(dp, false)
	}
	// Refine around the analytically optimal d' at the minimal nr.
	a := L / (rq.Eps1 * rq.Eps1)
	for _, guess := range []int{
		PEOSOptimalDPrime(rq.Eps1, rq.N, int(math.Ceil(L*2/(rq.Eps2*rq.Eps2))), rq.D, rq.Delta),
		int(((float64(rq.N-1))/a + 2) / 3),
	} {
		for dp := guess - 2; dp <= guess+2; dp++ {
			if dp >= 2 && dp <= maxDPrime && !seen[dp] {
				seen[dp] = true
				consider(dp, false)
			}
		}
	}
	if math.IsInf(best.Variance, 1) {
		return Plan{}, errors.New("amplify: no feasible PEOS configuration found")
	}
	return best, nil
}

// PlanContinual plans a continual-observation deployment: the same
// population reports every epoch, so each adversary's total budget in
// rq must cover the exact composition of all `epochs` collection
// rounds (composition.Split). It plans at two per-epoch deltas, the
// total's delta over epochs and half that, each target split exactly
// at each, and keeps the plan with less variance, the first on a tie:
// the smaller delta buys each epoch more eps, which pays once epochs
// are many, and costs planning margin, which does not pay when they
// are few. It returns the per-epoch plan and the per-epoch central
// guarantee — what a budget.Ledger for the service should charge each
// rotation.
func PlanContinual(rq Requirements, epochs int) (Plan, composition.Guarantee, error) {
	if err := rq.validate(); err != nil {
		return Plan{}, composition.Guarantee{}, err
	}
	if epochs < 1 {
		return Plan{}, composition.Guarantee{}, errors.New("amplify: need at least 1 epoch")
	}
	var (
		best     Plan
		bestPer  composition.Guarantee
		firstErr error
	)
	for i, perDelta := range []float64{rq.Delta / float64(epochs), rq.Delta / float64(2*epochs)} {
		per := rq
		per.Delta = perDelta
		for _, eps := range []*float64{&per.Eps1, &per.Eps2, &per.Eps3} {
			g, err := composition.Split(composition.Guarantee{Eps: *eps, Delta: rq.Delta}, epochs, perDelta)
			if err != nil {
				return Plan{}, composition.Guarantee{}, fmt.Errorf("amplify: splitting budget across %d epochs: %w", epochs, err)
			}
			*eps = g.Eps
		}
		plan, err := PlanPEOS(per)
		switch {
		case err != nil && i == 0:
			firstErr = err
		case err == nil && (bestPer == composition.Guarantee{} || plan.Variance < best.Variance):
			best, bestPer = plan, composition.Guarantee{Eps: per.Eps1, Delta: perDelta}
		}
	}
	if bestPer == (composition.Guarantee{}) {
		return Plan{}, composition.Guarantee{}, firstErr
	}
	return best, bestPer, nil
}

// planAt finds the minimal-variance configuration at a fixed output
// space (d' for SOLH, d for GRR).
func planAt(rq Requirements, outputSpace int, grr bool, L float64) (Plan, error) {
	if outputSpace < 2 {
		return Plan{}, errors.New("amplify: output space must be >= 2")
	}
	os := float64(outputSpace)
	// Constraint from Adv_u (Corollaries 8/9): nr >= 14 ln(2/delta) *
	// outputSpace / eps2^2.
	nrUsers := int(math.Ceil(L * os / (rq.Eps2 * rq.Eps2)))
	if nrUsers < 1 {
		nrUsers = 1
	}
	// Constraint from Adv with epsL capped at Eps3: the blanket
	// (n-1)/(e^epsL+os-1) + nr/os must reach a = L/eps1^2. With the
	// largest allowed epsL, the users contribute the least, so this
	// lower-bounds nr.
	a := L / (rq.Eps1 * rq.Eps1)
	usersBlanket := float64(rq.N-1) / (math.Exp(rq.Eps3) + os - 1)
	nrServer := 0
	if usersBlanket < a {
		nrServer = int(math.Ceil(os * (a - usersBlanket)))
	}
	nr := nrUsers
	if nrServer > nr {
		nr = nrServer
	}
	// Near epsS = 4 the Chernoff constant of Corollaries 8 and 9 is no
	// bound on the fakes-only view; take fakes until the exact view
	// holds the epsS claimed (fakesonly.go).
	nr, err := fakesForEpsS(nr, outputSpace, grr, L, rq.Delta)
	if err != nil {
		return Plan{}, err
	}
	// With nr fixed, spend as much local budget as epsC allows (utility
	// increases with epsL), capped at Eps3. When the inversion fails
	// because the fakes alone already blanket past the Eps1 target
	// (overblanketed / no-amplification errors), ANY local budget
	// satisfies Adv, so spend the full Eps3; the feasibility re-check
	// below still validates the achieved guarantees.
	epsL, m, err := PEOSLocalEpsilon(rq.Eps1, outputSpace, rq.N, nr, rq.Delta)
	if err != nil {
		epsL = rq.Eps3
		m = math.Exp(epsL) + os - 1
	}
	if epsL > rq.Eps3 {
		epsL = rq.Eps3
		m = math.Exp(epsL) + os - 1
	}
	variance, err := PEOSVariance(m, outputSpace, rq.N, nr, grr)
	if err != nil {
		return Plan{}, err
	}
	g := PEOSEpsilons(epsL, outputSpace, rq.N, nr, rq.Delta)
	// Feasibility re-check (guards rounding).
	if g.EpsC > rq.Eps1*(1+1e-9) || g.EpsS > rq.Eps2*(1+1e-9) || epsL > rq.Eps3*(1+1e-9) {
		return Plan{}, fmt.Errorf("amplify: configuration infeasible at outputSpace=%d", outputSpace)
	}
	return Plan{
		UseGRR:   grr,
		DPrime:   outputSpace,
		EpsL:     epsL,
		NR:       nr,
		Achieved: g,
		Variance: variance,
	}, nil
}
