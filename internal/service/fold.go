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
// worker i. Its words were checked by the reader that unpacked them,
// so the fold cannot fail.
func (s *Service) foldBatch(i int, eb epochBatch) {
	start := time.Now()
	sh := eb.ep.shards[i]
	sh.mu.Lock()
	s.codec.Fold(sh.agg, eb.run)
	sh.mu.Unlock()
	s.returnRun(eb.run)
	eb.ep.pending.Done()
	s.cfg.Meter.AddCPU(PartyServer, time.Since(start))
}

// scrubFreed, set by the package's tests, overwrites every buffer with
// all-ones bytes as it goes back onto a free list, so a stage still
// reading a buffer it gave back reads garbage the bit-identity tests
// catch: a scrubbed word lies outside every report group.
var scrubFreed bool

// take returns a buffer from the first of lists that holds one, the
// zero value (nil buffers) when every list is empty.
func take[T any](lists ...chan T) T {
	for _, free := range lists {
		select {
		case buf := <-free:
			return buf
		default:
		}
	}
	var none T
	return none
}

// giveBack returns buf to the first of lists with room, dropping it when
// every list is full: the service never holds more spare buffers than
// it has buffers in flight.
func giveBack[T any](buf T, lists ...chan T) {
	if scrubFreed {
		var plain []byte
		var words []uint64
		switch buf := any(buf).(type) {
		case []byte:
			plain = buf
		case []uint64:
			words = buf
		case frameBuf:
			plain, words = buf.plain, buf.words
		}
		plain, words = plain[:cap(plain)], words[:cap(words)]
		for i := range plain {
			plain[i] = 0xFF
		}
		for i := range words {
			words[i] = ^uint64(0)
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
func (s *Service) returnRun(run []uint64) { giveBack(run, s.runs) }
