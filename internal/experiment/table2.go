package experiment

import (
	"fmt"
	"math"
	"runtime"
	"strings"

	"shuffledp/internal/dataset"
	"shuffledp/internal/ldp"
)

// Table2Row is one epsC column of Table II: the optimal d' of SOLH and
// the utilities of SOLH (optimal and fixed d'), and RAP_R on Kosarak.
type Table2Row struct {
	EpsC float64
	// DPrime is SOLH's optimal hashed-domain size at this budget.
	DPrime int
	// SOLH is the mean MSE with the optimal d'.
	SOLH float64
	// SOLHFixed maps the ablated fixed d' (10/100/1000) to its MSE;
	// budgets where the fixed d' is infeasible (m <= d') hold NaN.
	SOLHFixed map[int]float64
	// RAPR is the removal-LDP unary-encoding competitor's MSE.
	RAPR float64
}

// Table2Config parameterizes the Table II reproduction.
type Table2Config struct {
	EpsCs   []float64
	FixedDs []int
	Trials  int
	Delta   float64
	Seed    uint64
}

// DefaultTable2Config returns the paper's settings.
func DefaultTable2Config() Table2Config {
	return Table2Config{
		EpsCs:   []float64{0.2, 0.4, 0.6, 0.8},
		FixedDs: []int{10, 100, 1000},
		Trials:  20,
		Delta:   1e-9,
		Seed:    2,
	}
}

// Table2 reproduces Table II on a (Kosarak-shaped) dataset. The
// (budget, variant) trial jobs run in parallel (GOMAXPROCS workers),
// each on its own seed substream, so the table is deterministic for a
// fixed cfg.Seed at any worker count.
func Table2(ds *dataset.Dataset, cfg Table2Config) ([]Table2Row, error) {
	trueCounts := ds.Histogram()
	truth := ds.TrueFrequencies()
	n := ds.N()

	// Variants per row: SOLH (optimal d'), one per fixed d', RAP_R.
	stride := len(cfg.FixedDs) + 2
	jobs := len(cfg.EpsCs) * stride
	mses := make([]float64, jobs)
	dPrimes := make([]int, len(cfg.EpsCs))
	errs := make([]error, jobs)
	ldp.RunSharded(jobs, runtime.GOMAXPROCS(0), func(_, job int) {
		ri, vi := job/stride, job%stride
		epsC := cfg.EpsCs[ri]
		r := jobStream(cfg.Seed, job)
		switch {
		case vi == 0:
			solh, err := NewMethod("SOLH", epsC, cfg.Delta, n, ds.D)
			if err != nil {
				errs[job] = err
				return
			}
			dPrimes[ri] = solh.DPrime
			mses[job] = MeanMSE(solh, trueCounts, truth, cfg.Trials, r)
		case vi <= len(cfg.FixedDs):
			m, err := NewSOLHFixed(epsC, cfg.Delta, n, ds.D, cfg.FixedDs[vi-1])
			if err != nil {
				// Infeasible (m <= d'): record NaN like the paper's
				// blank-by-degradation entries.
				mses[job] = math.NaN()
				return
			}
			mses[job] = MeanMSE(m, trueCounts, truth, cfg.Trials, r)
		default:
			rapr, err := NewMethod("RAP_R", epsC, cfg.Delta, n, ds.D)
			if err != nil {
				errs[job] = err
				return
			}
			mses[job] = MeanMSE(rapr, trueCounts, truth, cfg.Trials, r)
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	rows := make([]Table2Row, 0, len(cfg.EpsCs))
	for ri, epsC := range cfg.EpsCs {
		row := Table2Row{
			EpsC:      epsC,
			DPrime:    dPrimes[ri],
			SOLH:      mses[ri*stride],
			SOLHFixed: make(map[int]float64, len(cfg.FixedDs)),
			RAPR:      mses[ri*stride+stride-1],
		}
		for fi, dp := range cfg.FixedDs {
			row.SOLHFixed[dp] = mses[ri*stride+1+fi]
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatTable2 renders the rows the way the paper lays out Table II.
func FormatTable2(rows []Table2Row, fixedDs []int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s", "epsC")
	for _, row := range rows {
		fmt.Fprintf(&b, " %12.1f", row.EpsC)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%-18s", "d' (SOLH)")
	for _, row := range rows {
		fmt.Fprintf(&b, " %12d", row.DPrime)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%-18s", "SOLH")
	for _, row := range rows {
		fmt.Fprintf(&b, " %12.3e", row.SOLH)
	}
	b.WriteByte('\n')
	for _, dp := range fixedDs {
		fmt.Fprintf(&b, "%-18s", fmt.Sprintf("SOLH (d'=%d)", dp))
		for _, row := range rows {
			fmt.Fprintf(&b, " %12.3e", row.SOLHFixed[dp])
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%-18s", "RAP_R")
	for _, row := range rows {
		fmt.Fprintf(&b, " %12.3e", row.RAPR)
	}
	b.WriteByte('\n')
	return b.String()
}
