package service

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
	if c.batchCount > 0 && epoch != c.batchEpoch {
		_ = c.flushBatch()
	}
	c.epoch = epoch
}

// SetMaxFrame lowers the frame cap of a service built from cfg below
// DefaultMaxFrame.
func (cfg *Config) SetMaxFrame(n int) { cfg.maxFrame = n }

// Every test of the package runs with given-back buffers scrubbed to
// 0xFF, so a stage that reads a plaintext or run after handing it back
// corrupts the bit-identity and fold tests instead of passing by luck.
func init() { scrubFreed = true }
