package protocol

import (
	"shuffledp/internal/ldp"
)

// SpotCheck implements the §VI-A1 tamper-detection idea: "the server
// can add dummy accounts before the system setup, then it can check
// whether the reports from his accounts are tampered."
//
// The server controls the dummies' randomness, so it knows each dummy's
// exact report word. After collection it verifies every planted word
// still appears with at least the planted multiplicity; a shuffler that
// substituted reports risks deleting a dummy and being caught.
type SpotCheck struct {
	enc     *ldp.WordEncoder
	planted map[uint64]int
}

// NewSpotCheck prepares a checker for the oracle's report space.
func NewSpotCheck(fo ldp.FrequencyOracle) (*SpotCheck, error) {
	enc, err := ldp.NewWordEncoder(fo)
	if err != nil {
		return nil, err
	}
	return &SpotCheck{enc: enc, planted: make(map[uint64]int)}, nil
}

// Plant registers a dummy report the server injected through a dummy
// account and returns the report to submit.
func (sc *SpotCheck) Plant(rep ldp.Report) ldp.Report {
	sc.planted[sc.enc.Encode(rep)]++
	return rep
}

// Verify checks the collected reports against the planted set. It
// returns the number of missing planted reports (0 means the batch
// passes).
func (sc *SpotCheck) Verify(reports []ldp.Report) int {
	remaining := make(map[uint64]int, len(sc.planted))
	for w, c := range sc.planted {
		remaining[w] = c
	}
	for _, rep := range reports {
		w := sc.enc.Encode(rep)
		if remaining[w] > 0 {
			remaining[w]--
		}
	}
	missing := 0
	for _, c := range remaining {
		missing += c
	}
	return missing
}
