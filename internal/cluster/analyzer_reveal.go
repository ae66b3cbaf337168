package cluster

import (
	"errors"
	"fmt"

	"shuffledp/internal/ahe"
	"shuffledp/internal/oblivious"
	"shuffledp/internal/transport"
)

// awaitVectors waits until every shuffler's link has delivered its
// vector frame for generation g, then reconstructs the share sum and
// decrypts the encrypted column in parallel. Frames of older
// generations are leftovers of aborted attempts and never count. The
// wait fails as soon as a link ends, is replaced or brings a fail
// notice, and at CollectTimeout — which blames no shuffler: a live one
// keeps its link. A shuffler whose vector does not decode has its link
// closed.
func (a *Analyzer) awaitVectors(shufflers []*link, g gen, total int) ([]uint64, error) {
	frames := make([]inFrame, len(shufflers))
	var missing []int
	err := await(func() (bool, error) {
		a.mu.Lock()
		defer a.mu.Unlock()
		if a.closed {
			return false, errNodeClosed
		}
		missing = missing[:0]
		for j, l := range shufflers {
			f := a.inbox[j]
			switch {
			case a.peers[j] != l:
				return false, fmt.Errorf("shuffler %d reconnected mid-attempt", j)
			case f.err != nil:
				return false, fmt.Errorf("reading shuffler %d vector: %w", j, f.err)
			case f.tag == 0 || f.g != g:
				missing = append(missing, j)
			case f.tag == tagFail:
				return false, fmt.Errorf("shuffler %d failed: %s", j, f.body)
			default:
				frames[j] = f
			}
		}
		return len(missing) == 0, nil
	}, a.changed, nil, a.cfg.CollectTimeout)
	if errors.Is(err, errAwaitTimeout) {
		err = fmt.Errorf("no vector from shuffler(s) %v within %v", missing, a.cfg.CollectTimeout)
	}
	if err != nil {
		return nil, err
	}
	st := &oblivious.State{Plain: make([][]uint64, len(shufflers)), EncHolder: -1}
	for j, f := range frames {
		var n int
		switch {
		case f.tag == tagVector:
			st.Plain[j], err = transport.DecodeUint64s(f.body)
			n = len(st.Plain[j])
		case st.EncHolder >= 0:
			err = fmt.Errorf("%w: shufflers %d and %d both sent ciphertext vectors", errBadFrame, st.EncHolder, j)
		default:
			st.Enc, err = decodeCiphertexts(ahe.PublicKey(a.cfg.Priv), f.body)
			n, st.EncHolder = len(st.Enc), j
		}
		if err == nil && n != total {
			err = fmt.Errorf("%w: shuffler %d vector has %d elements, want %d", errBadFrame, j, n, total)
		}
		if err != nil {
			shufflers[j].close()
			return nil, err
		}
	}
	if st.EncHolder < 0 {
		return nil, errors.New("cluster: no shuffler delivered the encrypted column")
	}
	return oblivious.RevealParallel(st, a.mod, a.cfg.Priv, 0)
}

// Estimates returns the cumulative calibrated estimate over every
// sealed collection (all zeros before the first).
func (a *Analyzer) Estimates() []float64 {
	a.stateMu.Lock()
	defer a.stateMu.Unlock()
	return a.sup.Calibrate(a.counts, a.reals, a.fakes)
}

// Totals returns the cumulative user-report and fake-report counts.
func (a *Analyzer) Totals() (reports, fakes int) {
	a.stateMu.Lock()
	defer a.stateMu.Unlock()
	return a.reals, a.fakes
}

// Collections returns how many collection rounds have sealed.
func (a *Analyzer) Collections() int {
	a.stateMu.Lock()
	defer a.stateMu.Unlock()
	return a.collections
}
