package service

import "shuffledp/internal/ldp"

// Test seams. A production client always stamps EpochCurrent; tests pin
// an epoch to drive the service's late-report path.

// SetEpoch stamps subsequent reports with a specific epoch id instead
// of the default EpochCurrent ("whatever epoch the service has open").
// A report asserting an epoch the service has already sealed is
// dropped and counted as Late rather than folded into the wrong
// collection round. A session batch asserts one epoch for all its
// reports, so changing the epoch flushes the open batch first (any
// flush error latches and surfaces on the next send or Flush).
func (c *Client) SetEpoch(epoch uint32) {
	if c.batch.n > 0 && epoch != c.batchEpoch {
		_ = c.flushBatch()
	}
	c.epoch = epoch
}

// SetMaxFrame lowers the frame cap of a service built from cfg below
// DefaultMaxFrame.
func (cfg *Config) SetMaxFrame(n int) { cfg.maxFrame = n }

// Every test of the package runs with given-back buffers scrubbed to
// all-ones bytes, so a stage that reads a frame or run after handing it
// back corrupts the bit-identity and fold tests instead of passing by
// luck.
func init() { scrubFreed = true }

// PackFrame packs reports into one session frame's plaintext, exactly
// as a Client packs its open batch.
func (c *Codec) PackFrame(reps []ldp.Report) ([]byte, error) {
	words := make([]uint64, len(reps))
	for i, rep := range reps {
		w, err := c.encode(rep)
		if err != nil {
			return nil, err
		}
		words[i] = w
	}
	return c.PackWords(words...), nil
}

// PackWords packs words, each below 2^B but not necessarily below the
// group order, as a Client packs its open batch.
func (c *Codec) PackWords(words ...uint64) []byte {
	p := c.newPacker(len(words))
	for _, w := range words {
		p.add(w)
	}
	return p.bytes()
}

// Bits returns B, the bits one word report takes in a frame.
func (c *Codec) Bits() int { return int(c.bits) }
