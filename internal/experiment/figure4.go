package experiment

import (
	"errors"
	"fmt"
	"runtime"
	"strings"

	"shuffledp/internal/dataset"
	"shuffledp/internal/ldp"
	"shuffledp/internal/treehist"
)

// Figure4Config parameterizes the succinct-histogram comparison
// (§VII-C): 48-bit strings, 6 rounds of 8 bits, top-32 per round.
type Figure4Config struct {
	EpsCs   []float64
	K       int
	Bits    int
	Round   int
	Trials  int
	Delta   float64
	Methods []string
	Seed    uint64
}

// DefaultFigure4Config returns the paper's settings (trials reduced for
// interactive runs).
func DefaultFigure4Config() Figure4Config {
	return Figure4Config{
		EpsCs:   []float64{0.2, 0.4, 0.6, 0.8, 1.0},
		K:       32,
		Bits:    48,
		Round:   8,
		Trials:  3,
		Delta:   1e-9,
		Methods: []string{"OLH", "Had", "Lap", "SH", "SOLH", "AUE", "RAP", "RAP_R"},
		Seed:    3,
	}
}

// Figure4Point is one x-position: precision of each method at one epsC.
type Figure4Point struct {
	EpsC      float64
	Precision map[string]float64
}

// Figure4 reproduces the succinct-histogram precision comparison on a
// string dataset. LDP methods (OLH, Had) partition users across rounds
// (the original TreeHist strategy); shuffle-model and central methods
// run all users every round with the budget divided by the round count
// (the better strategy the paper identifies).
func Figure4(ds *dataset.StringDataset, cfg Figure4Config) ([]Figure4Point, error) {
	if cfg.Bits != ds.Bits {
		return nil, errors.New("experiment: config Bits mismatch with dataset")
	}
	rounds := cfg.Bits / cfg.Round
	truth := ds.TopStrings(cfg.K)

	jobs := len(cfg.EpsCs) * len(cfg.Methods)
	precisions := make([]float64, jobs)
	errs := make([]error, jobs)
	ldp.RunSharded(jobs, runtime.GOMAXPROCS(0), func(_, job int) {
		pi, mi := job/len(cfg.Methods), job%len(cfg.Methods)
		epsC, name := cfg.EpsCs[pi], cfg.Methods[mi]
		r := jobStream(cfg.Seed, job)
		grouped := name == "OLH" || name == "Had"
		// Budget per round: LDP methods keep the full budget (each
		// group is disjoint, parallel composition); the others
		// split epsC and delta across rounds (sequential
		// composition).
		roundEps := epsC
		roundDelta := cfg.Delta
		roundN := ds.N()
		if grouped {
			roundN = ds.N() / rounds
		} else {
			roundEps = epsC / float64(rounds)
			roundDelta = cfg.Delta / float64(rounds)
		}

		var total float64
		for trial := 0; trial < cfg.Trials; trial++ {
			estimate := func(values []int, d int) []float64 {
				m, err := NewMethod(name, roundEps, roundDelta, roundN, d)
				if err != nil {
					// Methods can be infeasible at tiny budgets;
					// fall back to uniform guessing for the round.
					return ldp.BaseEstimates(d)
				}
				return m.Simulate(ldp.Histogram(values, d), r)
			}
			found, err := treehist.Run(ds.Values, treehist.Config{
				Bits:       cfg.Bits,
				RoundBits:  cfg.Round,
				K:          cfg.K,
				GroupUsers: grouped,
				Estimate:   estimate,
			})
			if err != nil {
				errs[job] = fmt.Errorf("figure4 %s at epsC=%v: %w", name, epsC, err)
				return
			}
			total += treehist.Precision(found, truth)
		}
		precisions[job] = total / float64(cfg.Trials)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	points := make([]Figure4Point, 0, len(cfg.EpsCs))
	for pi, epsC := range cfg.EpsCs {
		pt := Figure4Point{EpsC: epsC, Precision: make(map[string]float64, len(cfg.Methods))}
		for mi, name := range cfg.Methods {
			pt.Precision[name] = precisions[pi*len(cfg.Methods)+mi]
		}
		points = append(points, pt)
	}
	return points, nil
}

// FormatFigure4 renders precision points as an aligned table.
func FormatFigure4(points []Figure4Point, methods []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s", "epsC")
	for _, m := range methods {
		fmt.Fprintf(&b, " %8s", m)
	}
	b.WriteByte('\n')
	for _, pt := range points {
		fmt.Fprintf(&b, "%-6.2f", pt.EpsC)
		for _, m := range methods {
			fmt.Fprintf(&b, " %8.3f", pt.Precision[m])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
