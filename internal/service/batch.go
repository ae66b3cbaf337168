package service

import (
	"fmt"

	"shuffledp/internal/store"
)

// rejectedLogCap bounds how many post-exhaustion rejected reports are
// write-ahead logged. A rejected frame is one 18-byte counted drop, so
// the cap holds the WAL to about 2 MiB even against one-report frames.
// An exhausted service never checkpoints again, so these records are
// never pruned; beyond the cap drops are still counted in-memory but no
// longer durable.
const rejectedLogCap = 1 << 17

// queuedBatchesPerWorker sizes the batches queue: that many
// batches per fold worker (GOMAXPROCS of them, counted at New or
// Recover) may wait before a reader that cut a run folds it itself.
// Ten alternated 12 s pairs read 2 per worker behind 5 in nine on
// svc_durable_query_d1024 (median -3.3%) and in eight on svc_wire_d64,
// which has no WAL (median -7.1%): EXPERIMENTS.md, "The frame is the
// unit of durability".
const queuedBatchesPerWorker = 5

// epochBatch is one batch — a run of words — routed to the epoch that
// was open when it was flushed.
type epochBatch struct {
	ep  *epochState
	run []uint64
}

// accept is the batch stage, run by the reader that opened the frame
// under batchMu: the frame is routed to the open epoch, logged, and its
// words copied by the RunBatcher into BatchSize-word runs, in arrival
// order (a frame larger than a batch simply spans several). Rotate and
// Drain take the same mutex to cut the stream, so every frame and every
// batch belongs to exactly one epoch. The runs the frame completed are
// appended to runs for the reader to dispatch once the mutex is free:
// no fold runs under it. It returns errStopIngest, accepting nothing,
// once the service stops.
func (s *Service) accept(tag uint32, plain []byte, words []uint64, runs []epochBatch) ([]epochBatch, error) {
	s.batchMu.Lock()
	defer s.batchMu.Unlock()
	if s.stopped() {
		return runs, errStopIngest
	}
	// What a frame asserts — and whether the budget still admits it —
	// is constant per frame, so it is decided, and logged, once here,
	// and the frame is batched whole. Every report lands in exactly one
	// of Received, Late and Rejected, so the three stay disjoint and the
	// Snapshot backlog arithmetic holds.
	n := int64(len(words))
	cur := s.cur.Load()
	if s.exhausted.Load() {
		// The budget ran out, and cur is the last sealed epoch, kept for
		// queries: count the reports, log the drop (the service has
		// stopped checkpointing, so the WAL is the only thing that
		// carries Rejected across a restart), never aggregate them. The
		// drop carries the id the next epoch would have had, so replay
		// filters it correctly. Logging stops at rejectedLogCap reports:
		// an exhausted service writes no more checkpoints, so nothing
		// would ever prune these records, and a client flooding a
		// still-open connection must not grow the WAL (or the next
		// recovery's replay) without bound. Past the cap the recovered
		// Rejected count is a lower bound.
		s.rejected.Add(n)
		if logged := min(n, rejectedLogCap-s.wal.rejected); s.st != nil && logged > 0 {
			if err := s.st.AppendDrop(uint32(cur.id+1), store.DropRejected, uint32(logged)); err != nil {
				s.fail(err)
			}
			s.wal.rejected += logged
			// No batch flush will ever run again (nothing aggregates),
			// so commit the frame's drop record now — the exhausted
			// service has no other work to slow down.
			if err := commitWAL(s.st); err != nil {
				s.fail(err)
			}
		}
		return runs, nil
	}
	if tag != EpochCurrent && tag != uint32(cur.id) {
		// One record for the frame, whatever it carried: what a stale
		// epoch tag costs the WAL must not grow with the frame.
		s.late.Add(n)
		if s.st != nil {
			if err := s.st.AppendDrop(uint32(cur.id), store.DropLate, uint32(n)); err != nil {
				s.fail(err)
			}
		}
		return runs, nil
	}
	s.received.Add(n)
	if s.st != nil {
		// The frame is logged whole before the batcher sees it: a flush
		// fired by any of its reports — a frame larger than a batch
		// fires several — commits a WAL that already holds every one.
		if err := s.logFrame(uint32(cur.id), plain, len(words)); err != nil {
			s.fail(err)
		}
	}
	s.batcher.Add(words)
	// The count advances by a whole frame, so the hint fires on
	// crossing the threshold, not on landing on it.
	prev := cur.accepted.Add(n) - n
	if e := int64(s.cfg.EpochReports); e > 0 && prev < e && prev+n >= e {
		select {
		case s.rotateHint <- struct{}{}:
		default:
		}
	}
	return s.takeCut(runs), nil
}

// flushRun is the RunBatcher's flush, called under batchMu: the run
// joins the open epoch's pending batches and waits in s.cut for the
// goroutine holding the mutex to take it. The WAL hits the platters
// (policy permitting) before the batch leaves the mutex: a report can
// only influence an estimate once it is on its way to disk. The
// batcher only ever holds reports accepted into the open epoch, so
// s.cur is open whenever a flush fires.
func (s *Service) flushRun(run []uint64) {
	if s.st != nil {
		if err := commitWAL(s.st); err != nil {
			s.fail(fmt.Errorf("service: committing WAL batch: %w", err))
		}
	}
	cur := s.cur.Load()
	cur.pending.Add(1)
	cur.batches.Add(1)
	s.forwarded.Add(1)
	s.cfg.Meter.Send(PartyShuffler, PartyServer, 8*len(run))
	s.cut = append(s.cut, epochBatch{ep: cur, run: run})
}

// commitWAL commits the WAL; the package's tests count the calls
// through it.
var commitWAL = (*store.Store).Commit

// takeCut moves the runs flushed so far from s.cut onto runs, the
// caller's own list. Callers hold batchMu.
func (s *Service) takeCut(runs []epochBatch) []epochBatch {
	runs = append(runs, s.cut...)
	s.cut = s.cut[:0]
	return runs
}

// flushPartial cuts the batcher's partial run, if any, and returns it:
// the epoch cut and the graceful drain both end a stream with it. The
// caller folds the run itself (foldBatch) once batchMu is free; callers
// hold batchMu.
func (s *Service) flushPartial() []epochBatch {
	s.batcher.FlushNow()
	return s.takeCut(nil)
}

// logFrame write-ahead logs one frame of reports accepted into epoch:
// its packed plaintext, as the client sealed it, is sealed once under
// the at-rest key and appended as one record, so the durable
// tier's cost per frame is one AEAD seal and one WAL append however
// many reports the frame carries. The frame arrived under a
// connection-ephemeral key recovery could never re-derive, hence the
// re-seal: the WAL never holds plaintext reports. Callers hold
// batchMu, which is what makes the sealer's nonce counter, the scratch
// (the store's record encoder copies the payload) and the counter
// mirror safe to touch.
func (s *Service) logFrame(epoch uint32, plain []byte, reports int) error {
	s.sealBuf = s.sealer.Seal(s.sealBuf[:0], plain)
	if err := s.st.AppendSealedReport(epoch, s.sealBuf); err != nil {
		return err
	}
	s.wal.received += int64(reports)
	return nil
}
