// Package budget is the cross-epoch privacy-loss ledger of the
// continual-observation tier. The paper analyzes one collection round;
// a deployed service re-collects the same population every epoch, so
// the privacy loss composes over time. The ledger holds a total
// (eps, delta) budget and is paid per collection id: a tier pays
// through the id of each collection it opens, which charges one
// per-epoch guarantee for every collection up to that id not paid yet,
// and the ledger refuses the payment — which the service turns into
// refusing ingestion — once the composed loss would exceed the total.
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

// ErrExhausted is returned by PayThrough when paying for the collection
// would push the composed privacy loss past the ledger's total budget.
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

// Ledger tracks which collections are paid for against a total
// budget. Collections are numbered from 0 and paid for in order, so the
// ledger's whole state is how many of them are paid. It is safe for
// concurrent use.
type Ledger struct {
	mu    sync.Mutex
	total composition.Guarantee
	per   composition.Guarantee
	acct  Accountant
	paid  int
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
	// at construction rather than at the first payment.
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

// PayThrough makes collections 0..id paid for, charging one per-epoch
// guarantee for each of them not paid yet. An id already paid costs
// nothing, so a tier may pay for the collection it is about to run on
// every attempt, and recovery may pay for everything a data directory
// shows sealed in one call. It returns ErrExhausted — and leaves the
// ledger unchanged — if id+1 collections would compose past the total
// budget.
func (l *Ledger) PayThrough(id int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if id < l.paid {
		return nil
	}
	ok, err := l.fits(id + 1)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("%w: %d epochs of (%.4g, %.3g) under %s accounting spend (%.4g, %.3g) of the total (%.4g, %.3g)",
			ErrExhausted, l.paid, l.per.Eps, l.per.Delta, l.acct.Name(),
			l.mustSpent().Eps, l.mustSpent().Delta, l.total.Eps, l.total.Delta)
	}
	l.paid = id + 1
	return nil
}

// mustSpent is Spent without locking; callers hold l.mu.
func (l *Ledger) mustSpent() composition.Guarantee {
	g, err := l.acct.Compose(l.per, l.paid)
	if err != nil {
		// The constructor verified Compose(per, 1); monotone accountants
		// cannot start failing later.
		panic(fmt.Sprintf("budget: accountant failed at %d paid epochs: %v", l.paid, err))
	}
	return g
}

// Spent returns the composed privacy loss of the paid epochs.
func (l *Ledger) Spent() composition.Guarantee {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.mustSpent()
}

// PerEpoch returns the per-epoch guarantee each paid epoch spends.
func (l *Ledger) PerEpoch() composition.Guarantee { return l.per }

// AccountantName returns the composing accountant's name.
func (l *Ledger) AccountantName() string { return l.acct.Name() }

// Remaining returns the budget left before the ledger exhausts:
// total minus spent, floored at zero component-wise. It is a progress
// indicator, not a charging rule — PayThrough composes from scratch.
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
// under this accountant (independent of how many are already paid),
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
