package stattest_test

import (
	"fmt"
	"testing"

	"shuffledp/internal/amplify"
	"shuffledp/internal/ldp"
	"shuffledp/internal/protocol"
	"shuffledp/internal/rng"
	"shuffledp/internal/stattest"
)

// planned is a plan as an ldp.Mechanism, so CheckMSE bands the measured
// error around the variance the planner predicted for it.
type planned struct{ amplify.Plan }

func (p planned) EpsilonLocal() float64 { return p.EpsL }
func (p planned) Variance(int) float64  { return p.Plan.Variance }

// TestPlanVarianceIsEstimatorVariance holds the planner to the
// estimator it plans for (ROADMAP item 25): for a grid of PlanShuffle,
// PlanPEOS and PlanContinual plans — GRR and SOLH, from no fakes to
// about 11 fakes per user — n users holding uniform values randomize
// at the plan's oracle, NR fakes uniform over the report space join
// them, and the mean MSE of protocol.Estimate over seeded trials must
// land within 3x of Plan.Variance. Pricing a GRR fake like a real
// report, as the planner once did, reads 11-158x low on the grid's GRR
// plans with fakes.
func TestPlanVarianceIsEstimatorVariance(t *testing.T) {
	const (
		delta  = 1e-6
		trials = 100
	)
	type target struct {
		name string
		d, n int
		plan func() (amplify.Plan, error)
	}
	oracles := map[amplify.Oracle]string{amplify.Auto: "Auto", amplify.GRR: "GRR", amplify.SOLH: "SOLH"}
	shuffle := func(epsC float64, d, n int, oracle amplify.Oracle) target {
		return target{fmt.Sprintf("PlanShuffle(%v,d=%d,n=%d,%s)", epsC, d, n, oracles[oracle]), d, n, func() (amplify.Plan, error) {
			return amplify.PlanShuffle(epsC, d, n, delta, oracle)
		}}
	}
	peos := func(e1, e2, e3 float64, d, n, epochs int) target {
		rq := amplify.Requirements{Eps1: e1, Eps2: e2, Eps3: e3, D: d, N: n, Delta: delta}
		if epochs == 0 {
			return target{fmt.Sprintf("PlanPEOS(%v,%v,%v,d=%d,n=%d)", e1, e2, e3, d, n), d, n, func() (amplify.Plan, error) {
				return amplify.PlanPEOS(rq)
			}}
		}
		return target{fmt.Sprintf("PlanContinual(%v,%v,%v,d=%d,n=%d,epochs=%d)", e1, e2, e3, d, n, epochs), d, n, func() (amplify.Plan, error) {
			p, _, err := amplify.PlanContinual(rq, epochs)
			return p, err
		}}
	}
	for i, tc := range []target{
		shuffle(1, 16, 2000, amplify.GRR),
		shuffle(1, 16, 2000, amplify.SOLH),
		shuffle(3, 16, 500, amplify.Auto),
		peos(4, 8, 8, 16, 400, 0),
		peos(1, 8, 8, 16, 400, 0),
		peos(1, 3, 8, 64, 2000, 0),
		peos(1, 3, 2, 64, 2000, 0),
		peos(1, 0.5, 1, 16, 200, 0),
		peos(4, 8, 8, 16, 4000, 1),
		peos(2, 4, 4, 32, 1000, 3),
		peos(2, 4, 4, 32, 1000, 10),
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan, err := tc.plan()
			if err != nil {
				t.Fatal(err)
			}
			var fo ldp.FrequencyOracle = ldp.NewSOLH(tc.d, plan.DPrime, plan.EpsL)
			if plan.UseGRR {
				fo = ldp.NewGRR(tc.d, plan.EpsL)
			}
			enc, err := ldp.NewWordEncoder(fo)
			if err != nil {
				t.Fatal(err)
			}
			values := make([]int, tc.n)
			for u := range values {
				values[u] = u % tc.d
			}
			t.Logf("%v (NR = %.2f n)", plan, float64(plan.NR)/float64(tc.n))
			stattest.CheckMSE(t, planned{plan}, ldp.TrueFrequencies(values, tc.d), tc.n, trials, uint64(3000+100*i), 3,
				func(seed uint64) ([]float64, error) {
					reports := ldp.RandomizeParallel(fo, values, seed, 1)
					fakes := rng.New(^seed)
					for range plan.NR {
						reports = append(reports, enc.Decode(enc.UniformWord(fakes.Uint64n)))
					}
					return protocol.Estimate(fo, reports, tc.n, plan.NR), nil
				})
		})
	}
}
