package attack

import (
	"math"
	"testing"

	"shuffledp/internal/ldp"
)

func TestUserCollusionFakesHideVictim(t *testing.T) {
	fo := ldp.NewGRR(16, 2)
	const nr, trials = 99, 4000
	res := UserCollusion(fo, nr, trials, 1)
	if res.ExposedNoFakes != trials {
		t.Fatalf("without fakes the victim must always be exposed: %d/%d",
			res.ExposedNoFakes, trials)
	}
	// With nr fakes a uniform guess hits any copy of the victim's
	// word: the victim's own report plus ~nr/d colliding fakes, so
	// success ~ (1 + nr/d) / (nr + 1).
	rate := float64(res.IdentifiedWithFakes) / float64(trials)
	want := (1 + float64(nr)/16) / float64(nr+1)
	se := math.Sqrt(want * (1 - want) / float64(trials))
	if math.Abs(rate-want) > 6*se+0.01 {
		t.Fatalf("identification rate %v, want ~%v", rate, want)
	}
}

func TestUserCollusionSOLH(t *testing.T) {
	fo := ldp.NewSOLH(1000, 8, 1.5)
	res := UserCollusion(fo, 49, 2000, 2)
	rate := float64(res.IdentifiedWithFakes) / float64(res.Trials)
	if rate > 0.08 {
		t.Fatalf("SOLH identification rate %v too high", rate)
	}
}

func TestSSFakePoisoningSkews(t *testing.T) {
	const d, n, nr = 16, 20000, 2000
	fo := ldp.NewGRR(d, 4)
	trueCounts := make([]int, d)
	for v := range trueCounts {
		trueCounts[v] = n / d
	}
	res := SSFakePoisoning(fo, trueCounts, nr, 3, 50, 3)
	// Expected inflation ~ nr (1 - 1/d) / (n * (p-q)) scaled through
	// the estimator; at minimum it must be clearly positive and large
	// relative to the noise floor.
	if res.TargetBoost < 0.01 {
		t.Fatalf("SS poisoning boost %v — attack should visibly skew the estimate",
			res.TargetBoost)
	}
}

func TestPEOSFakePoisoningMasked(t *testing.T) {
	const d, n, nr = 16, 20000, 2000
	fo := ldp.NewGRR(d, 4)
	trueCounts := make([]int, d)
	for v := range trueCounts {
		trueCounts[v] = n / d
	}
	res := PEOSFakePoisoning(fo, trueCounts, nr, 3, 3, 50, 4)
	// The honest shufflers' shares mask the attacker: no visible skew.
	if math.Abs(res.TargetBoost) > 0.005 {
		t.Fatalf("PEOS boost %v — masking failed", res.TargetBoost)
	}
	// Combined fakes must be uniform: chi-square with d-1=15 dof has
	// 99.9%-ile ~ 37.7.
	if res.ChiSquare > 45 {
		t.Fatalf("fake reports not uniform: chi2 = %v (dof %d)", res.ChiSquare, res.Dof)
	}
	if res.Dof != d-1 {
		t.Fatalf("dof = %d", res.Dof)
	}
}

func TestPEOSvsSSPoisoningContrast(t *testing.T) {
	// The headline security claim: same adversary, orders of magnitude
	// less influence under PEOS.
	const d, n, nr = 8, 10000, 1000
	fo := ldp.NewGRR(d, 4)
	trueCounts := make([]int, d)
	for v := range trueCounts {
		trueCounts[v] = n / d
	}
	ss := SSFakePoisoning(fo, trueCounts, nr, 0, 30, 5)
	peos := PEOSFakePoisoning(fo, trueCounts, nr, 0, 3, 30, 6)
	if ss.TargetBoost < 10*math.Abs(peos.TargetBoost) {
		t.Fatalf("expected SS boost (%v) >> PEOS boost (%v)",
			ss.TargetBoost, peos.TargetBoost)
	}
}

func TestUserCollusionPanicsOnUnary(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	UserCollusion(ldp.NewRAP(4, 1), 10, 10, 1)
}
