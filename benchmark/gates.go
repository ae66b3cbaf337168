package main

import (
	"fmt"
	"math"
)

// gates is the outcome of the correctness checks, plus what the
// cluster's reference run measured on the way (it is a full
// protocol.PEOS.Run on the cluster's inputs, so its wall clock and
// Meter are worth keeping).
type gates struct {
	err       error
	refWallS  float64
	refCounts map[string]float64
}

// runGates checks the run's outputs, outside every timed window:
//
//   - every repetition conserved its reports (checked where they ran);
//   - repetition 0 is bit-identical to a sequential reference built
//     from the same rng streams (service: re-randomize + aggregate;
//     cluster: protocol.PEOS.Run seeded as the conformance suites do);
//   - counts that cannot depend on timing agree across repetitions;
//   - the estimate's error is the size the paper's variance predicts.
func runGates(w workload, seed uint64, reps []*rep) gates {
	var g gates
	fail := func(format string, args ...any) {
		if g.err == nil {
			g.err = fmt.Errorf(format, args...)
		}
	}
	for i, r := range reps {
		if r.gateErr != nil {
			fail("repetition %d: %v", i, r.gateErr)
		}
	}

	var ref []float64
	switch w.kind {
	case kindService:
		ref = serviceReference(w, seed, 0)
	case kindCluster:
		var err error
		if ref, g.refWallS, g.refCounts, err = clusterReference(w, seed, 0); err != nil {
			fail("reference PEOS.Run: %v", err)
		}
	}
	if ref != nil && !sameFloats(ref, reps[0].estimates) {
		fail("repetition 0 estimate is not bit-identical to the sequential reference")
	}

	for i, r := range reps[1:] {
		if r.edgeBytes != reps[0].edgeBytes {
			fail("wire bytes differ between repetitions: %d vs %d (repetition %d)", reps[0].edgeBytes, r.edgeBytes, i+1)
		}
		for _, k := range []string{"late", "rejected", "kicked"} {
			if r.counts[k] != reps[0].counts[k] {
				fail("%s differs between repetitions: %v vs %v (repetition %d)", k, reps[0].counts[k], r.counts[k], i+1)
			}
		}
	}

	// One draw of empirical-over-expected MSE scatters by sqrt(2/d)
	// around a centre that sits a little above 1 (the analytic variance
	// assumes rare values; Zipf heads and PEOS's fake reports add to
	// it), and the repetitions average independent draws. The band
	// catches a broken estimator; the mse_ratio metric's bound catches
	// a speed-for-accuracy trade.
	ratio := mean(column(reps, func(r *rep) float64 { return r.mseRatio }))
	tol := 0.5 + 6*math.Sqrt(2/float64(w.d*len(reps)))
	if math.IsNaN(ratio) || ratio < 1/(1+tol) || ratio > 1+tol {
		fail("mse_ratio %.3f outside [%.3f, %.3f]", ratio, 1/(1+tol), 1+tol)
	}
	return g
}

// sameFloats reports bit-for-bit equality.
func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
