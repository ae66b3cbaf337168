package budget

import (
	"errors"
	"sync"
	"testing"

	"shuffledp/internal/composition"
)

// The acceptance criterion's accounting rule: with a total budget B and
// per-epoch eps under naive composition, exactly floor(B/eps) epochs
// charge and the next one is refused.
func TestNaiveFloorEpochs(t *testing.T) {
	cases := []struct {
		totalEps, perEps float64
		want             int
	}{
		{1.0, 0.3, 3},
		{1.0, 0.1, 10}, // exact division must not lose the last epoch to rounding
		{2.0, 0.5, 4},
		{0.5, 0.6, 0},
		{1.0, 1.0, 1},
	}
	for _, c := range cases {
		l, err := NewLedger(
			composition.Guarantee{Eps: c.totalEps, Delta: 1e-6},
			composition.Guarantee{Eps: c.perEps, Delta: 1e-9},
			Naive{},
		)
		if err != nil {
			t.Fatal(err)
		}
		if got := l.MaxEpochs(); got != c.want {
			t.Fatalf("B=%v eps=%v: MaxEpochs = %d, want floor(B/eps) = %d", c.totalEps, c.perEps, got, c.want)
		}
		for i := 0; i < c.want; i++ {
			if err := l.Charge(); err != nil {
				t.Fatalf("B=%v eps=%v: charge %d failed: %v", c.totalEps, c.perEps, i+1, err)
			}
		}
		if err := l.Charge(); !errors.Is(err, ErrExhausted) {
			t.Fatalf("B=%v eps=%v: charge %d returned %v, want ErrExhausted", c.totalEps, c.perEps, c.want+1, err)
		}
		if got := l.Epochs(); got != c.want {
			t.Fatalf("refused charge moved the ledger: %d epochs, want %d", got, c.want)
		}
	}
}

// Advanced composition must admit strictly more epochs than naive at
// the same total budget in the small-per-epoch regime, and the
// composed loss at its own maximum must still fit the total.
func TestAdvancedBeatsNaive(t *testing.T) {
	total := composition.Guarantee{Eps: 2, Delta: 1e-4}
	per := composition.Guarantee{Eps: 0.01, Delta: 1e-8}
	naive, err := NewLedger(total, per, Naive{})
	if err != nil {
		t.Fatal(err)
	}
	adv, err := NewLedger(total, per, Advanced{Slack: 5e-5})
	if err != nil {
		t.Fatal(err)
	}
	nMax, aMax := naive.MaxEpochs(), adv.MaxEpochs()
	if nMax != 200 {
		t.Fatalf("naive MaxEpochs = %d, want floor(2/0.01) = 200", nMax)
	}
	if aMax <= nMax {
		t.Fatalf("advanced MaxEpochs = %d, not strictly more than naive's %d", aMax, nMax)
	}
	g, err := Advanced{Slack: 5e-5}.Compose(per, aMax)
	if err != nil {
		t.Fatal(err)
	}
	const tol = 1 + 1e-9
	if g.Eps > total.Eps*tol || g.Delta > total.Delta*tol {
		t.Fatalf("advanced max %d composes to (%v, %v), outside total (%v, %v)", aMax, g.Eps, g.Delta, total.Eps, total.Delta)
	}
	t.Logf("B=%v: naive admits %d epochs, advanced %d (%.1fx)", total.Eps, nMax, aMax, float64(aMax)/float64(nMax))
}

// Advanced must never be worse than naive: it takes the tighter of the
// two bounds at every k.
func TestAdvancedNeverWorseThanNaive(t *testing.T) {
	per := composition.Guarantee{Eps: 0.2, Delta: 1e-9}
	a := Advanced{Slack: 1e-6}
	for k := 0; k <= 400; k += 7 {
		basic, err := Naive{}.Compose(per, k)
		if err != nil {
			t.Fatal(err)
		}
		adv, err := a.Compose(per, k)
		if err != nil {
			t.Fatal(err)
		}
		if adv.Eps > basic.Eps {
			t.Fatalf("k=%d: advanced eps %v exceeds naive %v", k, adv.Eps, basic.Eps)
		}
	}
}

// The total delta binds too: per-epoch deltas accumulate linearly under
// both accountants, so a tight delta budget limits epochs even with
// plenty of epsilon left.
func TestDeltaBinds(t *testing.T) {
	l, err := NewLedger(
		composition.Guarantee{Eps: 100, Delta: 1e-6},
		composition.Guarantee{Eps: 0.1, Delta: 4e-7},
		Naive{},
	)
	if err != nil {
		t.Fatal(err)
	}
	if got := l.MaxEpochs(); got != 2 {
		t.Fatalf("MaxEpochs = %d, want 2 (delta-bound)", got)
	}
}

func TestSpentAndRemaining(t *testing.T) {
	total := composition.Guarantee{Eps: 1, Delta: 1e-6}
	per := composition.Guarantee{Eps: 0.25, Delta: 1e-8}
	l, err := NewLedger(total, per, nil) // nil accountant defaults to Naive
	if err != nil {
		t.Fatal(err)
	}
	if l.AccountantName() != "naive" {
		t.Fatalf("default accountant %q, want naive", l.AccountantName())
	}
	for i := 1; i <= 3; i++ {
		if err := l.Charge(); err != nil {
			t.Fatal(err)
		}
		spent := l.Spent()
		if want := 0.25 * float64(i); spent.Eps != want {
			t.Fatalf("after %d charges Spent().Eps = %v, want %v", i, spent.Eps, want)
		}
	}
	rem := l.Remaining()
	if rem.Eps != 0.25 {
		t.Fatalf("Remaining().Eps = %v, want 0.25", rem.Eps)
	}
	if l.total != total || l.PerEpoch() != per {
		t.Fatal("Total/PerEpoch do not echo the construction parameters")
	}
}

func TestNewLedgerValidation(t *testing.T) {
	good := composition.Guarantee{Eps: 1, Delta: 1e-6}
	bad := []struct {
		name       string
		total, per composition.Guarantee
		acct       Accountant
	}{
		{"zero total eps", composition.Guarantee{Delta: 1e-6}, good, nil},
		{"zero per eps", good, composition.Guarantee{Delta: 1e-6}, nil},
		{"total delta 1", composition.Guarantee{Eps: 1, Delta: 1}, good, nil},
		{"bad slack", good, good, Advanced{Slack: 2}},
	}
	for _, c := range bad {
		if _, err := NewLedger(c.total, c.per, c.acct); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// Concurrent charges must account exactly: no matter how the charges
// race, precisely MaxEpochs succeed.
func TestConcurrentCharges(t *testing.T) {
	l, err := NewLedger(
		composition.Guarantee{Eps: 1, Delta: 1e-6},
		composition.Guarantee{Eps: 0.05, Delta: 1e-9},
		Naive{},
	)
	if err != nil {
		t.Fatal(err)
	}
	want := l.MaxEpochs() // 20
	var wg sync.WaitGroup
	oks := make(chan bool, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			oks <- l.Charge() == nil
		}()
	}
	wg.Wait()
	close(oks)
	got := 0
	for ok := range oks {
		if ok {
			got++
		}
	}
	if got != want || l.Epochs() != want {
		t.Fatalf("%d concurrent charges succeeded (ledger at %d), want exactly %d", got, l.Epochs(), want)
	}
}

// Restore is the recovery path: it must accept any provable count —
// including an exactly-exhausted one — and refuse counts the
// accountant cannot prove (wrong ledger parameters).
func TestLedgerRestore(t *testing.T) {
	newLedger := func() *Ledger {
		l, err := NewLedger(
			composition.Guarantee{Eps: 3, Delta: 3e-9},
			composition.Guarantee{Eps: 1, Delta: 1e-9},
			Naive{},
		)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	l := newLedger()
	if err := l.Restore(2); err != nil {
		t.Fatalf("Restore(2): %v", err)
	}
	if got := l.Epochs(); got != 2 {
		t.Fatalf("Epochs() = %d after Restore(2)", got)
	}
	if err := l.Charge(); err != nil {
		t.Fatalf("charge after restore: %v", err)
	}
	if err := l.Charge(); !errors.Is(err, ErrExhausted) {
		t.Fatalf("4th epoch charged: %v", err)
	}

	// Exactly exhausted restores fine and still refuses the next.
	l = newLedger()
	if err := l.Restore(3); err != nil {
		t.Fatalf("Restore(3): %v", err)
	}
	if err := l.Charge(); !errors.Is(err, ErrExhausted) {
		t.Fatalf("charge after exhausted restore: %v", err)
	}

	// Counts the budget cannot prove are refused.
	l = newLedger()
	if err := l.Restore(4); err == nil {
		t.Fatal("Restore(4) accepted a count past the total budget")
	}
	if err := l.Restore(-1); err == nil {
		t.Fatal("Restore(-1) accepted a negative count")
	}
	if got := l.Epochs(); got != 0 {
		t.Fatalf("failed Restore mutated the ledger to %d epochs", got)
	}
}
