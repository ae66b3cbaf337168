package ldp

import (
	"sync/atomic"

	"shuffledp/internal/hash"
)

// The Figure 3 baselines' reference randomizers (baseline_test.go), for
// the statistical acceptance rows in stattest_test.go.
var (
	HadamardEstimate = hadamardEstimate
	RAPEstimate      = rapEstimate
	AUEEstimate      = aueEstimate
)

// SupportPairs runs f and returns how many (report, value) pairs the
// accumulators it drives hand hash.Family.CountSupport: the hash
// layer's work count. Callers must not run it concurrently.
func SupportPairs(f func()) int64 {
	var pairs atomic.Int64
	kernel := countSupport
	countSupport = func(fam hash.Family, seeds, ys []uint64, counts []int) {
		pairs.Add(int64(len(seeds)) * int64(len(counts)))
		kernel(fam, seeds, ys, counts)
	}
	defer func() { countSupport = kernel }()
	f()
	return pairs.Load()
}
