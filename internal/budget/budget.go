// Package budget is the cross-epoch privacy-loss ledger of the
// continual-observation tier. The paper analyzes one collection round;
// a deployed service re-collects the same population every epoch, so
// the privacy loss composes over time. The ledger holds a total
// (eps, delta) budget, charges one per-epoch guarantee each time the
// service opens a new epoch, and refuses the charge — which the
// service turns into refusing ingestion — once the composed loss would
// exceed the total.
//
// Two accountants compose the per-epoch guarantees through
// internal/composition:
//
//   - Naive: basic composition, k epochs cost (k*eps, k*delta). This is
//     the floor(B/eps) accounting of the acceptance criterion.
//   - Advanced: the tighter of basic and Dwork–Rothblum–Vadhan advanced
//     composition, so for small per-epoch budgets the same total B
//     admits strictly more epochs (the sqrt(k) regime).
package budget

import (
	"errors"
	"fmt"
	"sync"

	"shuffledp/internal/composition"
)

// ErrExhausted is returned by Charge when opening one more epoch would
// push the composed privacy loss past the ledger's total budget.
var ErrExhausted = errors.New("budget: total privacy budget exhausted")

// maxEpochsCap bounds the MaxEpochs search; a ledger that admits a
// billion epochs is unlimited for every practical purpose.
const maxEpochsCap = 1 << 30

// Accountant composes k identical per-epoch guarantees into the total
// privacy loss it can prove. Compose must be monotone in k: more
// epochs never prove a smaller loss.
type Accountant interface {
	// Name identifies the accountant in logs and snapshots.
	Name() string
	// Compose returns the guarantee of k epochs at per each.
	Compose(per composition.Guarantee, k int) (composition.Guarantee, error)
}

// Naive is basic (sequential) composition: k epochs of (eps, delta)
// cost exactly (k*eps, k*delta).
type Naive struct{}

// Name implements Accountant.
func (Naive) Name() string { return "naive" }

// Compose implements Accountant.
func (Naive) Compose(per composition.Guarantee, k int) (composition.Guarantee, error) {
	if k < 0 {
		return composition.Guarantee{}, errors.New("budget: negative epoch count")
	}
	kf := float64(k)
	return composition.Guarantee{Eps: kf * per.Eps, Delta: kf * per.Delta}, nil
}

// Advanced is the advanced-composition accountant: it proves the
// tighter of basic composition and the Dwork–Rothblum–Vadhan bound
// with slack Slack, so it is never worse than Naive and strictly
// better once eps*sqrt(2k ln(1/slack)) + k eps (e^eps - 1) < k eps.
type Advanced struct {
	// Slack is the delta' the advanced bound spends. It must be in
	// (0, 1) and is additional to the k*delta the epochs themselves
	// contribute; a ledger comparing against a total delta must leave
	// room for it.
	Slack float64
}

// Name implements Accountant.
func (a Advanced) Name() string { return "advanced" }

// Compose implements Accountant.
func (a Advanced) Compose(per composition.Guarantee, k int) (composition.Guarantee, error) {
	basic, err := Naive{}.Compose(per, k)
	if err != nil {
		return composition.Guarantee{}, err
	}
	if k == 0 {
		return basic, nil
	}
	if a.Slack <= 0 || a.Slack >= 1 {
		return composition.Guarantee{}, errors.New("budget: advanced accountant needs slack in (0, 1)")
	}
	adv, err := composition.Advanced(per, k, a.Slack)
	if err != nil {
		return composition.Guarantee{}, err
	}
	// Both bounds hold simultaneously, so the mechanism satisfies the
	// one with the smaller epsilon.
	if adv.Eps < basic.Eps {
		return adv, nil
	}
	return basic, nil
}

// Ledger tracks how many epochs have been opened against a total
// budget. It is safe for concurrent use.
type Ledger struct {
	mu      sync.Mutex
	total   composition.Guarantee
	per     composition.Guarantee
	acct    Accountant
	charged int
}

// NewLedger returns a ledger that admits epochs of guarantee per until
// acct composes them past total. A nil acct means Naive.
func NewLedger(total, per composition.Guarantee, acct Accountant) (*Ledger, error) {
	if total.Eps <= 0 || total.Delta < 0 || total.Delta >= 1 {
		return nil, errors.New("budget: total needs eps > 0 and delta in [0, 1)")
	}
	if per.Eps <= 0 || per.Delta < 0 || per.Delta >= 1 {
		return nil, errors.New("budget: per-epoch guarantee needs eps > 0 and delta in [0, 1)")
	}
	if acct == nil {
		acct = Naive{}
	}
	// Surface accountant misconfiguration (e.g. an out-of-range slack)
	// at construction rather than at the first Charge.
	if _, err := acct.Compose(per, 1); err != nil {
		return nil, fmt.Errorf("budget: accountant rejects a single epoch: %w", err)
	}
	return &Ledger{total: total, per: per, acct: acct}, nil
}

// fits reports whether k epochs stay within the total budget. The
// tiny relative tolerance keeps charges like 10 epochs of eps = B/10
// from failing on the last epoch's floating-point rounding.
func (l *Ledger) fits(k int) (bool, error) {
	g, err := l.acct.Compose(l.per, k)
	if err != nil {
		return false, err
	}
	const tol = 1 + 1e-9
	return g.Eps <= l.total.Eps*tol && g.Delta <= l.total.Delta*tol, nil
}

// Charge opens one more epoch. It returns ErrExhausted — and leaves
// the ledger unchanged — if the composed loss of the extra epoch would
// exceed the total budget.
func (l *Ledger) Charge() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	ok, err := l.fits(l.charged + 1)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("%w: %d epochs of (%.4g, %.3g) under %s accounting spend (%.4g, %.3g) of the total (%.4g, %.3g)",
			ErrExhausted, l.charged, l.per.Eps, l.per.Delta, l.acct.Name(),
			l.mustSpent().Eps, l.mustSpent().Delta, l.total.Eps, l.total.Delta)
	}
	l.charged++
	return nil
}

// mustSpent is Spent without locking; callers hold l.mu.
func (l *Ledger) mustSpent() composition.Guarantee {
	g, err := l.acct.Compose(l.per, l.charged)
	if err != nil {
		// The constructor verified Compose(per, 1); monotone accountants
		// cannot start failing later.
		panic(fmt.Sprintf("budget: accountant failed at charged=%d: %v", l.charged, err))
	}
	return g
}

// Restore sets the charged-epoch count to k, the recovery path of the
// durable service (internal/store): a restarted analyzer must resume
// the ledger where the crashed one left it rather than re-spending the
// budget from zero. k epochs must fit the total budget — a recorded
// count the accountant cannot prove means the ledger was restored with
// the wrong parameters, and loading it would fabricate guarantees.
// Restoring an exactly-exhausted count (k fits, k+1 does not) is valid:
// the recovered ledger then refuses the next Charge just as the
// original did.
func (l *Ledger) Restore(k int) error {
	if k < 0 {
		return errors.New("budget: negative restored epoch count")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	ok, err := l.fits(k)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("budget: restored count of %d epochs exceeds the total budget (wrong ledger parameters?)", k)
	}
	l.charged = k
	return nil
}

// Epochs returns how many epochs have been charged so far.
func (l *Ledger) Epochs() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.charged
}

// Spent returns the composed privacy loss of the charged epochs.
func (l *Ledger) Spent() composition.Guarantee {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.mustSpent()
}

// PerEpoch returns the per-epoch guarantee each charge spends.
func (l *Ledger) PerEpoch() composition.Guarantee { return l.per }

// AccountantName returns the composing accountant's name.
func (l *Ledger) AccountantName() string { return l.acct.Name() }

// Remaining returns the budget left before the ledger exhausts:
// total minus spent, floored at zero component-wise. It is a progress
// indicator, not a charging rule — Charge composes from scratch.
func (l *Ledger) Remaining() composition.Guarantee {
	spent := l.Spent()
	rem := composition.Guarantee{Eps: l.total.Eps - spent.Eps, Delta: l.total.Delta - spent.Delta}
	if rem.Eps < 0 {
		rem.Eps = 0
	}
	if rem.Delta < 0 {
		rem.Delta = 0
	}
	return rem
}

// MaxEpochs returns the largest epoch count the total budget admits
// under this accountant (independent of how many are already charged),
// capped at 2^30. Compose is monotone in k, so the bound is found by
// doubling then bisecting.
func (l *Ledger) MaxEpochs() int {
	ok, err := l.fits(1)
	if err != nil || !ok {
		return 0
	}
	lo := 1 // known to fit
	hi := 2
	for hi < maxEpochsCap {
		if ok, err := l.fits(hi); err == nil && ok {
			lo = hi
			hi *= 2
		} else {
			break
		}
	}
	if hi >= maxEpochsCap {
		return maxEpochsCap
	}
	// Invariant: lo fits, hi does not.
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if ok, err := l.fits(mid); err == nil && ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}
