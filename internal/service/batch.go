package service

import (
	"fmt"

	"shuffledp/internal/pipeline"
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
// batches per decode + aggregate worker (GOMAXPROCS of them, counted at
// New or Recover) may wait before the batch stage — and transitively the
// clients — block. The batch stage is a single goroutine feeding every
// worker, so it needs enough buffered batches to keep them fed across
// its own stalls (a rotation's fsync, a frame's seal and append). With
// that work per frame, not per report, ten alternated 12 s pairs still
// read 2 per worker behind 5 in nine on svc_durable_query_d1024
// (median -3.3%) and in eight on svc_wire_d64, which has no WAL
// (median -7.1%): EXPERIMENTS.md, "The frame is the unit of
// durability".
const queuedBatchesPerWorker = 5

// epochBatch is one batch — a run of words — routed to the epoch that
// was open when it was flushed.
type epochBatch struct {
	ep  *epochState
	run []uint64
}

// cutRuns is the batch stage: a pipeline.RunBatcher copies each
// opened frame's words into BatchSize-word runs, in arrival order (a
// frame larger than a batch simply spans several), and the flush
// callback forwards each run to the worker queue tagged with the open
// epoch. Rotation requests land here — between frames, never inside
// one — so every frame and every batch belongs to exactly one epoch.
// The partial final batch is flushed when the intake closes (graceful
// drain). The readers have unpacked every frame, so the stage does no
// bit work: its single goroutine feeds every worker.
func (s *Service) cutRuns() {
	defer close(s.batchDone)
	defer close(s.batches)
	cur := s.cur.Load()
	// rejectEpoch is the id the next epoch would have had — the tag
	// rejected-drop records carry so replay filters them correctly
	// (they always sort at or past the latest checkpoint's open epoch).
	rejectEpoch := uint32(cur.id + 1)
	if s.exhausted.Load() {
		// A service recovered into the exhausted state has no open
		// epoch: the stored pointer is the last sealed epoch, kept for
		// queries, and nothing may aggregate into it.
		cur = nil
	}
	batcher := &pipeline.RunBatcher{
		Size: s.cfg.BatchSize,
		Free: s.runs,
		Flush: func(run []uint64) {
			// The WAL hits the platters (policy permitting) before the
			// batch reaches any worker: a report can only influence an
			// estimate once it is on its way to disk. The batcher only
			// ever holds reports accepted into the open epoch, so cur is
			// non-nil whenever a flush fires.
			if s.st != nil {
				if err := s.st.Commit(); err != nil {
					s.fail(fmt.Errorf("service: committing WAL batch: %w", err))
				}
			}
			s.handOffRun(cur, run)
		},
	}
	accept := func(b frameBlock) {
		// Every exit below is done with the frame: it is logged and its
		// words copied into the batcher's run, or it is dropped.
		defer s.returnFrame(b)
		// What a frame asserts — and whether the budget still admits it —
		// is constant per frame, so it is decided, and logged, once here,
		// and the frame is batched whole. Dropped records move
		// out of Received into exactly one of the drop counters, so
		// Received / Late / Rejected stay disjoint and the Snapshot
		// backlog arithmetic holds.
		n := int64(len(b.words))
		if cur == nil {
			// The budget ran out: count the reports, log the drop (the
			// service has stopped checkpointing, so the WAL is the only
			// thing that carries Rejected across a restart), never
			// aggregate them. Logging stops at rejectedLogCap reports: an
			// exhausted service writes no more checkpoints, so nothing
			// would ever prune these records, and a client flooding a
			// still-open connection must not grow the WAL (or the next
			// recovery's replay) without bound. Past the cap the
			// recovered Rejected count is a lower bound.
			s.rejected.Add(n)
			s.received.Add(-n)
			if logged := min(n, rejectedLogCap-s.wal.rejected); s.st != nil && logged > 0 {
				if err := s.st.AppendDrop(rejectEpoch, store.DropRejected, uint32(logged)); err != nil {
					s.fail(err)
				}
				s.wal.rejected += logged
				// No batch flush will ever run again (nothing
				// aggregates), so commit the frame's drop record now —
				// the exhausted service has no other work to slow down.
				if err := s.st.Commit(); err != nil {
					s.fail(err)
				}
			}
			return
		}
		if b.epoch != EpochCurrent && b.epoch != uint32(cur.id) {
			// One record for the frame, whatever it carried: what a stale
			// epoch tag costs the WAL must not grow with the frame.
			s.late.Add(n)
			s.received.Add(-n)
			if s.st != nil {
				if err := s.st.AppendDrop(uint32(cur.id), store.DropLate, uint32(n)); err != nil {
					s.fail(err)
				}
			}
			return
		}
		if s.st != nil {
			// The frame is logged whole before the batcher sees it: a
			// flush fired by any of its reports — a frame larger than a
			// batch fires several — commits a WAL that already holds
			// every one.
			if err := s.logFrame(uint32(cur.id), b.plain, len(b.words)); err != nil {
				s.fail(err)
			}
		}
		batcher.Add(b.words)
		// The count advances by a whole frame, so the hint fires on
		// crossing the threshold, not on landing on it.
		prev := cur.accepted.Add(n) - n
		if e := int64(s.cfg.EpochReports); e > 0 && prev < e && prev+n >= e {
			select {
			case s.rotateHint <- struct{}{}:
			default:
			}
		}
	}
	for {
		select {
		case b, ok := <-s.intake:
			if !ok {
				batcher.FlushNow()
				return
			}
			accept(b)
		case req := <-s.rotateCh:
			// A rotation cuts the stream *after* everything already
			// received: drain the intake's frames into the closing epoch
			// first, so a caller that saw Received == n before rotating
			// knows all n reports belong to the sealed epoch.
			closed := false
			for !closed {
				select {
				case b, ok := <-s.intake:
					if !ok {
						closed = true
						break
					}
					accept(b)
				default:
					closed = true
				}
			}
			batcher.FlushNow()
			old := cur
			if s.st != nil && old != nil {
				// The marker and everything before it go durable now:
				// no record of the next epoch can reach disk ahead of
				// the boundary that separates the epochs, and the
				// sealing checkpoint gets a counter snapshot taken
				// exactly at the cut.
				next := int64(-1)
				if req.next != nil {
					next = int64(req.next.id)
				}
				if err := s.st.Rotate(uint32(old.id), next); err != nil {
					s.fail(fmt.Errorf("service: WAL rotate marker: %w", err))
				}
				old.cut = s.counters()
			}
			cur = req.next
			if cur != nil {
				s.cur.Store(cur)
				rejectEpoch = uint32(cur.id + 1)
			}
			// A hint generated by the epoch that just closed is stale;
			// dropping it here (the rotator re-checks anyway) keeps the
			// fresh epoch from being cut near-empty.
			select {
			case <-s.rotateHint:
			default:
			}
			req.done <- old
		case <-s.stop:
			return
		}
	}
}

// logFrame write-ahead logs one frame of reports accepted into epoch:
// its packed plaintext, as the client sealed it, is sealed once under
// the at-rest key and appended as one record, so the durable
// tier's cost per frame is one AEAD seal and one WAL append however
// many reports the frame carries. The frame arrived under a
// connection-ephemeral key recovery could never re-derive, hence the
// re-seal: the WAL never holds plaintext reports. Only the batch stage
// calls it, which is what makes the sealer's nonce counter, the scratch
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

// handOffRun passes a cut run to the fold workers, counted in cur's
// pending batches, the only batches send: from here on the run is the
// worker's until returnRun. When the service stops first the run is
// dropped with its pending count.
func (s *Service) handOffRun(cur *epochState, run []uint64) {
	cur.pending.Add(1)
	select {
	case s.batches <- epochBatch{ep: cur, run: run}:
		s.forwarded.Add(1)
		cur.batches.Add(1)
		s.cfg.Meter.Send(PartyShuffler, PartyServer, 8*len(run))
	case <-s.stop:
		cur.pending.Done()
	}
}

// returnFrame gives a frame's buffers back to the read stage once the
// batch stage is done with them — to the connection's own slot first,
// the service's list when that is full.
func (s *Service) returnFrame(b frameBlock) { giveBack(b.frameBuf, b.home, s.plains) }
