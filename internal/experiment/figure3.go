package experiment

import (
	"fmt"
	"runtime"
	"sort"
	"strings"

	"shuffledp/internal/dataset"
	"shuffledp/internal/ldp"
)

// CurvePoint is one x-position of a Figure 3-style plot: the mean MSE
// of every method at one central budget.
type CurvePoint struct {
	// EpsC is the central privacy budget (x-axis).
	EpsC float64
	// MSE maps method name to mean simulated MSE.
	MSE map[string]float64
	// AnalyticMSE maps method name to the closed-form expectation
	// (NaN where none exists).
	AnalyticMSE map[string]float64
}

// Figure3Config parameterizes the Figure 3 reproduction.
type Figure3Config struct {
	// EpsCs are the x-axis budgets (paper: 0.1 .. 1).
	EpsCs []float64
	// Trials per (method, budget) pair (paper: 100).
	Trials int
	// Delta is the DP failure probability (paper: 1e-9).
	Delta float64
	// Methods selects the lineup (default MethodNames).
	Methods []string
	// Seed makes the run reproducible.
	Seed uint64
}

// DefaultFigure3Config returns the paper's settings with a reduced
// trial count suitable for interactive runs.
func DefaultFigure3Config() Figure3Config {
	return Figure3Config{
		EpsCs:  []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0},
		Trials: 20,
		Delta:  1e-9,
		Seed:   1,
	}
}

// Figure3 reproduces the MSE-vs-epsC comparison on a dataset. The
// (budget, method) trial jobs run in parallel (GOMAXPROCS workers), each
// on its own seed substream, so the curve is deterministic for a fixed
// cfg.Seed at any worker count.
func Figure3(ds *dataset.Dataset, cfg Figure3Config) ([]CurvePoint, error) {
	methods := cfg.Methods
	if len(methods) == 0 {
		methods = MethodNames
	}
	trueCounts := ds.Histogram()
	truth := ds.TrueFrequencies()
	n := ds.N()

	jobs := len(cfg.EpsCs) * len(methods)
	mses := make([]float64, jobs)
	analytic := make([]float64, jobs)
	errs := make([]error, jobs)
	ldp.RunSharded(jobs, runtime.GOMAXPROCS(0), func(_, job int) {
		pi, mi := job/len(methods), job%len(methods)
		epsC, name := cfg.EpsCs[pi], methods[mi]
		m, err := NewMethod(name, epsC, cfg.Delta, n, ds.D)
		if err != nil {
			errs[job] = fmt.Errorf("figure3 %s at epsC=%v: %w", name, epsC, err)
			return
		}
		mses[job] = MeanMSE(m, trueCounts, truth, cfg.Trials, jobStream(cfg.Seed, job))
		analytic[job] = m.AnalyticMSE
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	points := make([]CurvePoint, 0, len(cfg.EpsCs))
	for pi, epsC := range cfg.EpsCs {
		pt := CurvePoint{
			EpsC:        epsC,
			MSE:         make(map[string]float64, len(methods)),
			AnalyticMSE: make(map[string]float64, len(methods)),
		}
		for mi, name := range methods {
			pt.MSE[name] = mses[pi*len(methods)+mi]
			pt.AnalyticMSE[name] = analytic[pi*len(methods)+mi]
		}
		points = append(points, pt)
	}
	return points, nil
}

// FormatCurve renders curve points as an aligned text table (methods as
// columns, sorted like the requested lineup).
func FormatCurve(points []CurvePoint, methods []string) string {
	if len(points) == 0 {
		return ""
	}
	if len(methods) == 0 {
		for name := range points[0].MSE {
			methods = append(methods, name)
		}
		sort.Strings(methods)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s", "epsC")
	for _, m := range methods {
		fmt.Fprintf(&b, " %12s", m)
	}
	b.WriteByte('\n')
	for _, pt := range points {
		fmt.Fprintf(&b, "%-6.2f", pt.EpsC)
		for _, m := range methods {
			fmt.Fprintf(&b, " %12.3e", pt.MSE[m])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
