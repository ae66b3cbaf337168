package service

import "time"

// runWorker is the fold stage: worker i folds every run it receives
// into its epoch's shard i, until Drain closes the queue or the service
// stops.
func (s *Service) runWorker(i int) {
	for {
		select {
		case eb, ok := <-s.batches:
			if !ok {
				return
			}
			s.foldBatch(i, eb)
		case <-s.stop:
			return
		}
	}
}

// dispatch hands a run a reader cut to the workers when the queue has
// room, and otherwise folds it in the reader, into a shard no worker
// holds. Only when every shard is held does it wait for room in the
// queue, so a reader never idles while it holds work; a run still
// waiting when the service stops is dropped with its pending count.
// Readers are the only senders on the queue.
func (s *Service) dispatch(eb epochBatch) {
	select {
	case s.batches <- eb:
		return
	default:
	}
	for _, sh := range eb.ep.shards {
		if sh.mu.TryLock() {
			s.fold(sh, eb)
			return
		}
	}
	select {
	case s.batches <- eb:
	case <-s.stop:
		s.drop(eb)
	}
}

// foldBatch folds a run into shard i of its epoch, waiting for the
// shard when it is held. Rotate and Drain fold the partial run they cut
// themselves, into shard 0, since they wait for the epoch's folds
// anyway.
func (s *Service) foldBatch(i int, eb epochBatch) {
	sh := eb.ep.shards[i]
	sh.mu.Lock()
	s.fold(sh, eb)
}

// fold folds a run into sh, whose lock the caller took and fold
// releases. Its words were checked by the reader that unpacked them, so
// the fold cannot fail.
func (s *Service) fold(sh *shard, eb epochBatch) {
	start := time.Now()
	s.codec.Fold(sh.agg, eb.run)
	sh.mu.Unlock()
	s.returnRun(eb.run)
	eb.ep.pending.Done()
	s.cfg.Meter.AddCPU(PartyServer, time.Since(start))
}

// drop ends a run the service stopped before folding.
func (s *Service) drop(eb epochBatch) {
	s.returnRun(eb.run)
	eb.ep.pending.Done()
}

// dropQueued drops every run left in the queue. Close calls it once
// every reader has exited, so nothing sends on the queue any more and a
// Rotate waiting on its epoch's pending runs returns although the
// workers have stopped.
func (s *Service) dropQueued() {
	for {
		select {
		case eb, ok := <-s.batches:
			if !ok {
				return
			}
			s.drop(eb)
		default:
			return
		}
	}
}

// scrubFreed, set by the package's tests, overwrites every run with
// all-ones words as it goes back onto the free list, so a stage still
// reading a run it gave back reads garbage the bit-identity tests
// catch: a scrubbed word lies outside every report group.
var scrubFreed bool

// returnRun gives a folded run back to the batcher's free list,
// dropping it when the list is full: the service never holds more
// spare runs than it has runs in flight.
func (s *Service) returnRun(run []uint64) {
	if scrubFreed {
		run = run[:cap(run)]
		for i := range run {
			run[i] = ^uint64(0)
		}
	}
	select {
	case s.runs <- run:
	default:
	}
}
