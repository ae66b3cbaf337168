package main

import (
	"bytes"
	"fmt"
	"math"
	"regexp"
	"strings"
	"testing"

	"shuffledp/internal/amplify"
)

// The service mode plans SOLH at the reports one epoch seals, prints
// the plan and the ε it charges, and charges exactly that ε for every
// sealed epoch.
func TestServicePlansAtEpochSize(t *testing.T) {
	const (
		n            = 3000
		epochs       = 3
		epochReports = (n + epochs - 1) / epochs
		delta        = 1e-9 // the -delta default
	)
	var out bytes.Buffer
	plan, hist := runService([]string{
		"-n", fmt.Sprint(n), "-epochs", fmt.Sprint(epochs), "-clients", "1",
	}, &out)
	text := out.String()
	if plan.UseGRR || plan.NR != 0 {
		t.Fatalf("service mode planned %s, want a basic-model SOLH plan", plan)
	}
	if want := fmt.Sprintf("plan at %d reports per epoch (delta=1e-09): %s\n", epochReports, plan); !strings.Contains(text, want) {
		t.Errorf("output lacks the plan line %q:\n%s", want, text)
	}
	if len(hist) == 0 {
		t.Fatalf("no epoch sealed:\n%s", text)
	}

	// (a) The ε printed for each sealed epoch is the one charged.
	printed := regexp.MustCompile(`(?m)^  epoch (\d+): .*\(charged eps=([0-9.]+)\)$`).FindAllStringSubmatch(text, -1)
	if len(printed) != len(hist) {
		t.Fatalf("printed %d sealed epochs, sealed %d:\n%s", len(printed), len(hist), text)
	}
	for i, es := range hist {
		if want := fmt.Sprintf("%.2f", es.Guarantee.Eps); printed[i][1] != fmt.Sprint(es.Epoch) || printed[i][2] != want {
			t.Errorf("epoch %d printed as epoch %s charged %s, charged %s", es.Epoch, printed[i][1], printed[i][2], want)
		}
	}

	for i, es := range hist {
		// (b) The plan's forward bound at the planned report count is
		// the charge.
		if got := amplify.CentralEpsilonSOLH(plan.EpsL, plan.DPrime, epochReports, delta); math.Abs(got-es.Guarantee.Eps) > 1e-12 {
			t.Errorf("epoch %d: plan gives eps=%v at %d reports, charged %v", es.Epoch, got, epochReports, es.Guarantee.Eps)
		}
		// (c) An epoch a rotation sealed holds at least the planned
		// count, so its own forward bound is within the charge. The
		// last epoch is Drain's and may be short.
		if i == len(hist)-1 {
			continue
		}
		if es.Reports < epochReports {
			t.Errorf("epoch %d: rotation sealed %d reports, under the planned %d", es.Epoch, es.Reports, epochReports)
			continue
		}
		if got := amplify.CentralEpsilonSOLH(plan.EpsL, plan.DPrime, es.Reports, delta); got > es.Guarantee.Eps+1e-12 {
			t.Errorf("epoch %d: %d reports give eps=%v, above the charge %v", es.Epoch, es.Reports, got, es.Guarantee.Eps)
		}
	}
}
