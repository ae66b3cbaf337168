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
			if err := l.PayThrough(i); err != nil {
				t.Fatalf("B=%v eps=%v: charge %d failed: %v", c.totalEps, c.perEps, i+1, err)
			}
		}
		if err := l.PayThrough(c.want); !errors.Is(err, ErrExhausted) {
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
		if err := l.PayThrough(i - 1); err != nil {
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

// Concurrent payments must account exactly: however 64 goroutines
// paying through ids 0..63 race, precisely the MaxEpochs ids the budget
// affords succeed, and the ledger ends paid through the last of them.
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
			oks <- l.PayThrough(i) == nil
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
		t.Fatalf("%d concurrent payments succeeded (ledger at %d), want exactly %d", got, l.Epochs(), want)
	}
}

// threeEpochs is a naive ledger that affords exactly three collections.
func threeEpochs(t *testing.T) *Ledger {
	t.Helper()
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

// Paying for a collection already paid for costs nothing: a retried
// round, or a recovery paying for what a crashed process paid, spends
// no budget twice.
func TestPayThroughIsIdempotent(t *testing.T) {
	l := threeEpochs(t)
	for i := 0; i < 3; i++ {
		if err := l.PayThrough(1); err != nil {
			t.Fatalf("paying through 1, time %d: %v", i+1, err)
		}
	}
	if err := l.PayThrough(0); err != nil {
		t.Fatalf("paying through 0 after 1: %v", err)
	}
	if err := l.PayThrough(-1); err != nil {
		t.Fatalf("paying for no collection: %v", err)
	}
	if got := l.Epochs(); got != 2 {
		t.Fatalf("ledger paid %d epochs, want 2", got)
	}
	if got := l.Spent(); got.Eps != 2 {
		t.Fatalf("Spent().Eps = %v, want 2", got.Eps)
	}
}

// A gap pays through: recovery pays for every collection a directory
// shows sealed in one call, including an exactly-exhausted count, after
// which the ledger refuses the next collection as the original did.
func TestPayThroughPaysGaps(t *testing.T) {
	l := threeEpochs(t)
	if err := l.PayThrough(1); err != nil {
		t.Fatalf("PayThrough(1) on a fresh ledger: %v", err)
	}
	if got := l.Epochs(); got != 2 {
		t.Fatalf("PayThrough(1) paid %d epochs, want 2", got)
	}
	if err := l.PayThrough(2); err != nil {
		t.Fatalf("PayThrough(2): %v", err)
	}
	if err := l.PayThrough(3); !errors.Is(err, ErrExhausted) {
		t.Fatalf("a fourth epoch was paid: %v", err)
	}

	l = threeEpochs(t)
	if err := l.PayThrough(2); err != nil {
		t.Fatalf("PayThrough(2) on a fresh ledger: %v", err)
	}
	if err := l.PayThrough(3); !errors.Is(err, ErrExhausted) {
		t.Fatalf("paying past an exactly-exhausted gap: %v", err)
	}
}

// A refusal leaves the ledger as it was: a gap the budget cannot cover
// pays for none of it.
func TestPayThroughRefusalLeavesLedgerUnchanged(t *testing.T) {
	l := threeEpochs(t)
	if err := l.PayThrough(0); err != nil {
		t.Fatal(err)
	}
	before := l.Spent()
	if err := l.PayThrough(3); !errors.Is(err, ErrExhausted) {
		t.Fatalf("PayThrough(3) on a three-epoch ledger returned %v, want ErrExhausted", err)
	}
	if got := l.Epochs(); got != 1 {
		t.Fatalf("refused payment moved the ledger to %d epochs", got)
	}
	if got := l.Spent(); got != before {
		t.Fatalf("refused payment moved Spent from %+v to %+v", before, got)
	}
	if err := l.PayThrough(2); err != nil {
		t.Fatalf("PayThrough(2) after the refusal: %v", err)
	}
}

// Many goroutines paying for the same collection pay for it once.
func TestPayThroughSameIDConcurrently(t *testing.T) {
	l := threeEpochs(t)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- l.PayThrough(1)
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := l.Epochs(); got != 2 {
		t.Fatalf("64 payments through collection 1 paid %d epochs, want 2", got)
	}
}

// An advanced ledger admits exactly the K collections the tighter of
// basic and advanced composition proves, and refuses collection K+1.
// K is worked out here from composition.Advanced and basic composition
// directly, not through MaxEpochs or the accountant's Compose, so an
// accountant that stopped proving a bound (say, one that dropped the
// advanced bound's error) fails here instead of admitting every epoch.
func TestAdvancedLedgerAdmitsExactlyK(t *testing.T) {
	total := composition.Guarantee{Eps: 2, Delta: 1e-4}
	per := composition.Guarantee{Eps: 0.01, Delta: 1e-8}
	const slack = 5e-5
	fits := func(k int) bool {
		kf := float64(k)
		g := composition.Guarantee{Eps: kf * per.Eps, Delta: kf * per.Delta}
		adv, err := composition.Advanced(per, k, slack)
		if err != nil {
			t.Fatal(err)
		}
		if adv.Eps < g.Eps {
			g = adv
		}
		return g.Eps <= total.Eps && g.Delta <= total.Delta
	}
	k := 0
	for fits(k + 1) {
		k++
	}
	if naive := int(total.Eps / per.Eps); k <= naive {
		t.Fatalf("advanced composition proves %d epochs, no more than naive's %d: the test would not reach the advanced bound", k, naive)
	}
	l, err := NewLedger(total, per, Advanced{Slack: slack})
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < k; id++ {
		if err := l.PayThrough(id); err != nil {
			t.Fatalf("collection %d of the %d the budget affords refused: %v", id, k, err)
		}
	}
	if err := l.PayThrough(k); !errors.Is(err, ErrExhausted) {
		t.Fatalf("collection %d paid past the %d the budget affords: %v", k, k, err)
	}
}
