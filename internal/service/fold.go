package service

import "time"

// runWorker is the decode + aggregate stage: worker i folds every
// shuffled batch it receives until the batch stage closes the queue.
func (s *Service) runWorker(i int) {
	for eb := range s.batches {
		s.foldBatch(i, eb)
	}
}

// foldBatch folds a run into the batch's epoch shard owned by
// worker i. Corrupt records are dropped and surfaced as the service
// error rather than silently mis-estimating.
func (s *Service) foldBatch(i int, eb epochBatch) {
	start := time.Now()
	sh := eb.ep.shards[i]
	sh.mu.Lock()
	err := s.codec.Fold(sh.agg, eb.run)
	sh.mu.Unlock()
	s.returnRun(eb.run)
	if err != nil {
		s.fail(err)
	}
	eb.ep.pending.Done()
	s.cfg.Meter.AddCPU(PartyServer, time.Since(start))
}

// scrubFreed, set by the package's tests, overwrites every buffer with
// 0xFF as it goes back onto a free list, so a stage still reading a
// buffer it gave back reads garbage the bit-identity tests catch.
var scrubFreed bool

// take returns a buffer from the first of lists that holds one, nil
// when every list is empty.
func take(lists ...chan []byte) []byte {
	for _, free := range lists {
		select {
		case buf := <-free:
			return buf
		default:
		}
	}
	return nil
}

// giveBack returns buf to the first of lists with room, dropping it when
// every list is full: the service never holds more spare buffers than
// it has buffers in flight.
func giveBack(buf []byte, lists ...chan []byte) {
	if scrubFreed {
		all := buf[:cap(buf)]
		for i := range all {
			all[i] = 0xFF
		}
	}
	for _, free := range lists {
		select {
		case free <- buf:
			return
		default:
		}
	}
}

// returnRun gives a folded run back to the batch stage's free list.
func (s *Service) returnRun(run []byte) { giveBack(run, s.runs) }
