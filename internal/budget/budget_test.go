package budget

import (
	"errors"
	"math"
	"sync"
	"testing"

	"shuffledp/internal/composition"
)

// The acceptance criterion's accounting rule: with a total budget B and
// per-epoch eps, exactly floor(B/eps) epochs charge and the next one is
// refused. At these per-epoch budgets one epoch past the floor puts
// percents of mass on the all-eps outcome, far past the total delta, so
// exact composition admits what naive composition did.
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

// naiveEpochs and advancedEpochs are how many epochs of per the old
// accountants admitted under total: basic composition, and the tighter
// of basic and Dwork–Rothblum–Vadhan advanced composition with slack.
// They stay here as oracles: the exact ledger must admit at least as
// many.
func naiveEpochs(total, per composition.Guarantee) int {
	k := 0
	for kf := 1.0; kf*per.Eps <= total.Eps && kf*per.Delta <= total.Delta; kf++ {
		k++
	}
	return k
}

func advancedEpochs(total, per composition.Guarantee, slack float64) int {
	k := 0
	for {
		kf := float64(k + 1)
		g := composition.Guarantee{Eps: kf * per.Eps, Delta: kf * per.Delta}
		if eps := per.Eps*math.Sqrt(2*kf*math.Log(1/slack)) + kf*per.Eps*(math.Exp(per.Eps)-1); eps < g.Eps {
			g = composition.Guarantee{Eps: eps, Delta: g.Delta + slack}
		}
		if g.Eps > total.Eps || g.Delta > total.Delta {
			return k
		}
		k++
	}
}

// Exact composition admits more epochs than advanced composition, which
// admitted more than naive, in the small-per-epoch regime: 3,162 epochs
// of (0.01, 1e-8) under (2, 1e-4), where advanced composition with half
// the total delta as slack admitted 1,690 and naive 200.
func TestAdvancedBeatsNaive(t *testing.T) {
	total := composition.Guarantee{Eps: 2, Delta: 1e-4}
	per := composition.Guarantee{Eps: 0.01, Delta: 1e-8}
	l, err := NewLedger(total, per)
	if err != nil {
		t.Fatal(err)
	}
	naive, adv, exact := naiveEpochs(total, per), advancedEpochs(total, per, 5e-5), l.MaxEpochs()
	if naive != 200 || adv != 1690 || exact != 3162 {
		t.Fatalf("naive, advanced and exact composition admit %d, %d and %d epochs, want 200, 1690 and 3162", naive, adv, exact)
	}
	t.Logf("B=%v: naive admits %d epochs, advanced %d, exact %d (%.2fx advanced)", total.Eps, naive, adv, exact, float64(exact)/float64(adv))
}

// Advanced composition never admitted fewer epochs than naive, and the
// exact ledger admits at least as many as either, over a grid of
// totals and per-epoch budgets: its composition at the old bounds' eps
// is within their delta (TestDeltaWithinOldBounds in
// internal/composition), so each epoch count they proved still fits.
func TestAdvancedNeverWorseThanNaive(t *testing.T) {
	for _, total := range []composition.Guarantee{{Eps: 1, Delta: 1e-6}, {Eps: 2, Delta: 1e-4}, {Eps: 8, Delta: 1e-9}} {
		for _, per := range []composition.Guarantee{{Eps: 0.01, Delta: 1e-9}, {Eps: 0.05, Delta: 1e-12}, {Eps: 0.2, Delta: 1e-12}, {Eps: 1, Delta: 1e-11}} {
			l, err := NewLedger(total, per)
			if err != nil {
				t.Fatal(err)
			}
			naive, adv, exact := naiveEpochs(total, per), advancedEpochs(total, per, total.Delta/2), l.MaxEpochs()
			if adv < naive || exact < adv || exact < naive {
				t.Errorf("total %+v, per %+v: naive, advanced and exact composition admit %d, %d and %d epochs", total, per, naive, adv, exact)
			}
		}
	}
}

// The total delta binds too: k epochs carry 1-(1-delta)^k of it at any
// eps, so a tight delta budget limits epochs even with plenty of epsilon
// left.
func TestDeltaBinds(t *testing.T) {
	l, err := NewLedger(
		composition.Guarantee{Eps: 100, Delta: 1e-6},
		composition.Guarantee{Eps: 0.1, Delta: 4e-7},
	)
	if err != nil {
		t.Fatal(err)
	}
	if got := l.MaxEpochs(); got != 2 {
		t.Fatalf("MaxEpochs = %d, want 2 (delta-bound)", got)
	}
}

// Spent is (0, 0) before any payment and then the least eps at which
// the paid epochs compose within the total delta: just under k*eps,
// where the unspent delta room buys a sliver of eps.
func TestSpent(t *testing.T) {
	total := composition.Guarantee{Eps: 1, Delta: 1e-6}
	per := composition.Guarantee{Eps: 0.25, Delta: 1e-8}
	l, err := NewLedger(total, per)
	if err != nil {
		t.Fatal(err)
	}
	if got := l.Spent(); got != (composition.Guarantee{}) {
		t.Fatalf("a fresh ledger spent %+v", got)
	}
	for i := 1; i <= 3; i++ {
		if err := l.PayThrough(i - 1); err != nil {
			t.Fatal(err)
		}
		spent := l.Spent()
		if kEps := 0.25 * float64(i); spent.Eps > kEps || spent.Eps < kEps-1e-4 {
			t.Fatalf("after %d charges Spent().Eps = %v, want just under %v", i, spent.Eps, kEps)
		}
		if spent.Delta > total.Delta*(1+1e-9) || composition.Delta(per, i, spent.Eps) != spent.Delta {
			t.Fatalf("after %d charges Spent() = %+v, not the composed delta within %v", i, spent, total.Delta)
		}
		below := spent.Eps * (1 - 1e-9)
		if composition.Delta(per, i, below) <= total.Delta*(1+1e-9) {
			t.Fatalf("after %d charges the epochs compose within the total at eps %v, below Spent's %v", i, below, spent.Eps)
		}
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
	}{
		{"zero total eps", composition.Guarantee{Delta: 1e-6}, good},
		{"zero per eps", good, composition.Guarantee{Delta: 1e-6}},
		{"total delta 1", composition.Guarantee{Eps: 1, Delta: 1}, good},
		{"per delta 1", good, composition.Guarantee{Eps: 1, Delta: 1}},
	}
	for _, c := range bad {
		if _, err := NewLedger(c.total, c.per); err == nil {
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
	)
	if err != nil {
		t.Fatal(err)
	}
	want := l.MaxEpochs() // 26: exact composition outlives floor(1/0.05) = 20
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

// threeEpochs is a ledger that affords exactly three collections: a
// fourth one's delta alone passes the total.
func threeEpochs(t *testing.T) *Ledger {
	t.Helper()
	l, err := NewLedger(
		composition.Guarantee{Eps: 3, Delta: 3e-9},
		composition.Guarantee{Eps: 1, Delta: 1e-9},
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
	if got := l.Spent(); got.Eps > 2 || got.Eps < 2-1e-8 {
		t.Fatalf("Spent().Eps = %v, want just under 2", got.Eps)
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

// A ledger admits exactly the K collections exact composition proves,
// and refuses collection K+1. K is worked out here by scanning
// composition.Delta at the total eps, not through MaxEpochs or the
// ledger's own tolerance, and must be the 3,162 epochs that the all-terms
// sum admits, more than advanced or naive composition proved; so a
// ledger that stopped composing (say, one that admitted every epoch)
// fails here.
func TestLedgerAdmitsExactlyK(t *testing.T) {
	total := composition.Guarantee{Eps: 2, Delta: 1e-4}
	per := composition.Guarantee{Eps: 0.01, Delta: 1e-8}
	k := 0
	for composition.Delta(per, k+1, total.Eps) <= total.Delta {
		k++
	}
	if old := advancedEpochs(total, per, total.Delta/2); k != 3162 || k <= old {
		t.Fatalf("exact composition proves %d epochs, want 3162, more than advanced composition's %d", k, old)
	}
	l, err := NewLedger(total, per)
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

// MaxEpochs stays cheap at millions of epochs: each composition reads
// O(sqrt(k)) terms (TestDeltaTermsAreOSqrtK in internal/composition).
// 5,599,844 epochs compose to delta 9.99998504e-7 at eps 1; the next
// two to 1.0000022e-6, by the window and by the all-terms sum alike.
func TestMaxEpochsAtMillions(t *testing.T) {
	l, err := NewLedger(composition.Guarantee{Eps: 1, Delta: 1e-6}, composition.Guarantee{Eps: 1e-4, Delta: 1e-15})
	if err != nil {
		t.Fatal(err)
	}
	if got := l.MaxEpochs(); got != 5599844 {
		t.Fatalf("MaxEpochs = %d, want 5599844", got)
	}
}
