package cluster

import (
	"fmt"

	"shuffledp/internal/ahe"
	"shuffledp/internal/transport"
)

// forward is the shuffler's forward stage: the post-shuffle vector
// goes to the analyzer on the control link, stamped with the attempt's
// generation so a stale vector from an aborted attempt is
// recognizable.
func (s *Shuffler) forward(a *attempt, outPlain []uint64, outEnc []*ahe.Ciphertext) error {
	if a.canceled() {
		return errAttemptAborted
	}
	tag, body := tagVector, transport.EncodeUint64s(outPlain)
	if outEnc != nil {
		tag, body = tagEncVector, encodeCiphertexts(s.cfg.Pub, outEnc)
	}
	if err := s.f.send(tag, prefixed(a.g, body)); err != nil {
		return fmt.Errorf("cluster: forwarding the vector: %w", err)
	}
	return nil
}
