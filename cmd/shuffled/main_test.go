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

// The service mode plans SOLH at the reports the smallest epoch seals,
// prints the plan and the ε it charges, charges exactly that ε for
// every sealed epoch, and seals exactly -epochs epochs, each holding at
// least the planned count. It runs with the default 8 gateways, whose
// interleaving differs from run to run, several times, once at an n
// the epochs do not divide, and once at the default n, where the plan
// is amplified (at 1,000 reports per epoch ε_l = ε has less variance).
func TestServicePlansAtEpochSize(t *testing.T) {
	const (
		epochs = 3
		delta  = 1e-9 // the -delta default
	)
	for run, n := range []int{3000, 3000, 3000, 3002, 20000} {
		epochReports := n / epochs
		var out bytes.Buffer
		plan, hist := runService([]string{"-n", fmt.Sprint(n), "-epochs", fmt.Sprint(epochs)}, &out)
		text := out.String()
		if plan.UseGRR || plan.NR != 0 {
			t.Fatalf("run %d: service mode planned %s, want a basic-model SOLH plan", run, plan)
		}
		if want := fmt.Sprintf("plan at %d reports per epoch (delta=1e-09): %s\n", epochReports, plan); !strings.Contains(text, want) {
			t.Errorf("run %d: output lacks the plan line %q:\n%s", run, want, text)
		}
		if len(hist) != epochs {
			t.Fatalf("run %d: sealed %d epochs, want %d:\n%s", run, len(hist), epochs, text)
		}

		// (a) The ε printed for each sealed epoch is the one charged.
		printed := regexp.MustCompile(`(?m)^  epoch (\d+): .*\(charged eps=([0-9.]+)\)$`).FindAllStringSubmatch(text, -1)
		if len(printed) != len(hist) {
			t.Fatalf("run %d: printed %d sealed epochs, sealed %d:\n%s", run, len(printed), len(hist), text)
		}
		for i, es := range hist {
			if want := fmt.Sprintf("%.2f", es.Guarantee.Eps); printed[i][1] != fmt.Sprint(es.Epoch) || printed[i][2] != want {
				t.Errorf("run %d: epoch %d printed as epoch %s charged %s, charged %s", run, es.Epoch, printed[i][1], printed[i][2], want)
			}
		}

		// central is the plan's guarantee over a release of m reports: the
		// forward shuffle bound, or ε_l itself for an unamplified plan,
		// whose oracle is ε_l-DP at any count.
		central := func(m int) float64 {
			if plan.EpsL == plan.Achieved.EpsC {
				return plan.EpsL
			}
			return amplify.CentralEpsilonSOLH(plan.EpsL, plan.DPrime, m, delta)
		}
		sealed := 0
		for _, es := range hist {
			sealed += es.Reports
			// (b) The plan's forward bound at the planned report count
			// is the charge.
			if got := central(epochReports); math.Abs(got-es.Guarantee.Eps) > 1e-12 {
				t.Errorf("run %d: epoch %d: plan gives eps=%v at %d reports, charged %v", run, es.Epoch, got, epochReports, es.Guarantee.Eps)
			}
			// (c) Every epoch, the last one too, holds at least the
			// planned count, so its own forward bound is within the
			// charge.
			if es.Reports < epochReports {
				t.Errorf("run %d: epoch %d sealed %d reports, under the planned %d", run, es.Epoch, es.Reports, epochReports)
				continue
			}
			if got := central(es.Reports); got > es.Guarantee.Eps+1e-12 {
				t.Errorf("run %d: epoch %d: %d reports give eps=%v, above the charge %v", run, es.Epoch, es.Reports, got, es.Guarantee.Eps)
			}
		}
		if sealed != n {
			t.Errorf("run %d: the epochs sealed %d reports, want all %d", run, sealed, n)
		}
	}
}

// With -total-eps unset the ledger budgets exactly -epochs rounds,
// delta included: past 100 epochs every epoch still seals and no
// report is rejected.
func TestServiceBudgetsEveryEpoch(t *testing.T) {
	const n, epochs = 1010, 101
	var out bytes.Buffer
	_, hist := runService([]string{"-n", fmt.Sprint(n), "-epochs", fmt.Sprint(epochs), "-d", "16", "-clients", "2"}, &out)
	text := out.String()
	if !strings.Contains(text, fmt.Sprintf("exact composition admits %d epochs\n", epochs)) {
		t.Errorf("the ledger line does not admit %d epochs:\n%s", epochs, text)
	}
	sealed := 0
	for _, es := range hist {
		sealed += es.Reports
	}
	if len(hist) != epochs || sealed != n || strings.Contains(text, "budget exhausted") {
		t.Errorf("sealed %d epochs holding %d reports, want %d holding all %d:\n%s", len(hist), sealed, epochs, n, text)
	}
}

// A service mode restarted over a -data-dir whose budget a previous run
// spent recovers exhausted: every epoch is sealed and none is open, and
// the recovery line must say so rather than name the last sealed epoch
// as open.
func TestRecoverDrainedDataDirOpensNoEpoch(t *testing.T) {
	args := []string{"-n", "3000", "-epochs", "3", "-data-dir", t.TempDir()}
	_, first := runService(args, new(bytes.Buffer))
	if len(first) != 3 {
		t.Fatalf("first run sealed %d epochs, want 3", len(first))
	}
	var out bytes.Buffer
	_, hist := runService(args, &out)
	text := out.String()
	want := fmt.Sprintf(": no epoch open, 3000 reports durable, %d epochs sealed\n", len(first))
	if !strings.Contains(text, want) {
		t.Errorf("recovery line lacks %q:\n%s", want, text)
	}
	if !strings.Contains(text, "budget exhausted") || len(hist) != len(first) {
		t.Errorf("restart sealed %d epochs (want the first run's %d) or did not report the exhausted budget:\n%s", len(hist), len(first), text)
	}
}
