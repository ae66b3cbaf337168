package ldp

// The Figure 3 baselines' reference randomizers (baseline_test.go), for
// the statistical acceptance rows in stattest_test.go.
var (
	HadamardEstimate = hadamardEstimate
	RAPEstimate      = rapEstimate
	AUEEstimate      = aueEstimate
)
