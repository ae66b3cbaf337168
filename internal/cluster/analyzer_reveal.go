package cluster

import (
	"errors"
	"fmt"

	"shuffledp/internal/ahe"
	"shuffledp/internal/oblivious"
	"shuffledp/internal/transport"
)

// awaitVectors reads one vector frame of total words per shuffler,
// reconstructs the share sum, and decrypts the encrypted column in
// parallel. Frames stamped with an older generation are
// leftovers of aborted attempts (a late vector or its fail notice) and
// are skipped; the read deadline still bounds how long stale traffic
// can stall the round.
func (a *Analyzer) awaitVectors(shufflers []*link, g gen, total int) ([]uint64, int, error) {
	r := a.cfg.Topology.R()
	limit := vectorFrameLimit(a.cfg.Priv, total)
	st := &oblivious.State{Plain: make([][]uint64, r), EncHolder: -1}
	for j, l := range shufflers {
	read:
		for {
			tag, payload, err := l.recv(limit, a.cfg.CollectTimeout)
			if err != nil {
				return nil, j, fmt.Errorf("reading shuffler %d vector: %w", j, err)
			}
			fg, body, err := splitPrefixed(payload)
			if err != nil {
				return nil, j, err
			}
			if fg != g {
				continue
			}
			switch tag {
			case tagVector:
				words, err := transport.DecodeUint64s(body)
				if err != nil {
					return nil, j, err
				}
				if len(words) != total {
					return nil, j, fmt.Errorf("%w: shuffler %d vector has %d words, want %d", errBadFrame, j, len(words), total)
				}
				st.Plain[j] = words
				break read
			case tagEncVector:
				if st.EncHolder >= 0 {
					return nil, -1, fmt.Errorf("%w: shufflers %d and %d both sent ciphertext vectors", errBadFrame, st.EncHolder, j)
				}
				cts, err := decodeCiphertexts(ahe.PublicKey(a.cfg.Priv), body)
				if err != nil {
					return nil, j, err
				}
				if len(cts) != total {
					return nil, j, fmt.Errorf("%w: shuffler %d ciphertext vector has %d elements, want %d", errBadFrame, j, len(cts), total)
				}
				st.Enc = cts
				st.EncHolder = j
				break read
			case tagFail:
				return nil, -1, fmt.Errorf("shuffler %d failed: %s", j, body)
			default:
				return nil, j, fmt.Errorf("%w: shuffler %d sent tag %d, want a vector", errBadFrame, j, tag)
			}
		}
	}
	if st.EncHolder < 0 {
		return nil, -1, errors.New("cluster: no shuffler delivered the encrypted column")
	}
	words, err := oblivious.RevealParallel(st, a.mod, a.cfg.Priv, 0)
	return words, -1, err
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
