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
// The ledger composes the per-epoch guarantees exactly
// (composition.Delta): k epochs fit while their optimal composition at
// the total eps stays within the total delta. It composes identical
// charges only; a tier whose collections charge unequal guarantees
// must charge each at the largest of them.
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

// Ledger tracks which collections are paid for against a total
// budget. Collections are numbered from 0 and paid for in order, so the
// ledger's whole state is how many of them are paid. It is safe for
// concurrent use.
type Ledger struct {
	mu    sync.Mutex
	total composition.Guarantee
	per   composition.Guarantee
	paid  int
}

// NewLedger returns a ledger that admits epochs of guarantee per while
// their exact composition fits total.
func NewLedger(total, per composition.Guarantee) (*Ledger, error) {
	if total.Eps <= 0 || total.Delta < 0 || total.Delta >= 1 {
		return nil, errors.New("budget: total needs eps > 0 and delta in [0, 1)")
	}
	if per.Eps <= 0 || per.Delta < 0 || per.Delta >= 1 {
		return nil, errors.New("budget: per-epoch guarantee needs eps > 0 and delta in [0, 1)")
	}
	return &Ledger{total: total, per: per}, nil
}

// tol keeps charges like 10 epochs of eps = B/10 from failing on the
// last epoch's floating-point rounding. It stretches the total eps too,
// so under a total delta of 0 a k*eps a few ulps past the total, whose
// composed delta is a few ulps past 0, still fits.
const tol = 1 + 1e-9

// fits reports whether k epochs stay within the total budget.
func (l *Ledger) fits(k int) bool {
	return composition.Delta(l.per, k, l.total.Eps*tol) <= l.total.Delta*tol
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
	if !l.fits(id + 1) {
		spent := l.spent()
		return fmt.Errorf("%w: %d epochs of (%.4g, %.3g) spend (%.4g, %.3g) of the total (%.4g, %.3g)",
			ErrExhausted, l.paid, l.per.Eps, l.per.Delta, spent.Eps, spent.Delta, l.total.Eps, l.total.Delta)
	}
	l.paid = id + 1
	return nil
}

// spent is Spent without locking; callers hold l.mu.
func (l *Ledger) spent() composition.Guarantee {
	if l.paid == 0 {
		return composition.Guarantee{}
	}
	ok := func(eps float64) bool {
		return composition.Delta(l.per, l.paid, eps) <= l.total.Delta*tol
	}
	// At paid*eps the epochs compose to (1-(1-delta)^paid), within the
	// total once they are paid; bisect down to the least eps that fits.
	lo, hi := 0.0, float64(l.paid)*l.per.Eps
	if ok(lo) {
		hi = lo
	}
	for mid := lo + (hi-lo)/2; mid != lo && mid != hi; mid = lo + (hi-lo)/2 {
		if ok(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return composition.Guarantee{Eps: hi, Delta: composition.Delta(l.per, l.paid, hi)}
}

// Spent returns the privacy loss of the paid epochs: the least eps at
// which they compose within the total delta, and their delta there;
// (0, 0) before any payment. Under exact composition the total minus
// this is no budget that can still be spent: what remains is counted in
// epochs, MaxEpochs less those paid.
func (l *Ledger) Spent() composition.Guarantee {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.spent()
}

// PerEpoch returns the per-epoch guarantee each paid epoch spends.
func (l *Ledger) PerEpoch() composition.Guarantee { return l.per }

// MaxEpochs returns the largest epoch count the total budget admits
// (independent of how many are already paid), capped at 2^30. The
// composed delta grows with k, so the bound is found by doubling then
// bisecting.
func (l *Ledger) MaxEpochs() int {
	if !l.fits(1) {
		return 0
	}
	lo := 1 // known to fit
	hi := 2
	for hi < maxEpochsCap {
		if l.fits(hi) {
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
		if l.fits(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}
