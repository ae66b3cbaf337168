package service

// Crash recovery: Recover rebuilds a durable service from its data
// directory — the latest checkpoint plus a replay of the WAL tail —
// to a state bit-identical to an uninterrupted run over the same
// durable reports (DESIGN.md §8). The recovery invariants:
//
//   - Sealed epochs come from the checkpoint: history roots load
//     exactly as written (aggregator blobs restore bit-identical
//     estimates), and Drain's all-time estimate is their merge, as it
//     was before the crash.
//   - The open epoch is rebuilt entirely from the WAL tail: every
//     checkpoint is taken at a rotation boundary, so the tail's report
//     records are precisely the open epoch's reports.
//   - A rotation marker in the tail (the crash hit between the marker
//     and its checkpoint) replays the seal: the rebuilt epoch freezes
//     into history and the seal's checkpoint is re-written —
//     re-durabilizing the rotation the crash interrupted.
//   - Privacy budget is never re-spent: the ledger is paid once, after
//     the tail is walked, through the epoch the directory shows open
//     (or, once the budget ran out, the last sealed one). The payment
//     is worked out from what was sealed, not by replaying charges,
//     and an exhausted ledger recovers exhausted — the service keeps
//     refusing ingestion.
//
// What recovery deliberately does NOT preserve: reports that were in
// flight (client buffers, the intake queue, an unflushed WAL buffer)
// are gone, exactly as the fsync policy allows — clients resume from
// Snapshot().Received, the count of durably accepted reports, which
// recovers on a frame boundary because a WAL record is a whole frame.
// And Snapshot().Batches counts only pre-crash forwarded batches;
// replayed reports fold directly into the epoch root without
// re-batching.

import (
	"errors"
	"fmt"

	"shuffledp/internal/budget"
	"shuffledp/internal/ldp"
	"shuffledp/internal/store"
)

// Recover rebuilds the durable service persisted under cfg.DataDir
// and starts it. cfg must carry the same oracle parameters, key, and
// ledger parameters the original service ran with — the oracle and
// domain are validated against the checkpoint, the rest is the
// caller's contract (a fresh budget.Ledger pays for every epoch the
// directory shows opened). The returned service is running and ready
// to Serve/Ingest the rest of the stream.
func Recover(cfg Config) (*Service, error) {
	if cfg.DataDir == "" {
		return nil, errors.New("service: Recover needs Config.DataDir")
	}
	s, err := prepare(cfg)
	if err != nil {
		return nil, err
	}
	st, rec, err := store.Open(s.cfg.DataDir, s.storeMeta(), s.cfg.Sync)
	if err != nil {
		return nil, err
	}
	s.st = st
	if err := s.restore(rec); err != nil {
		st.Close()
		return nil, err
	}
	s.start()
	// A recovered open epoch may already be past the auto-rotation
	// threshold (the crash hit after the hint was generated but before
	// the rotator acted on it); re-arm the hint, since the batch stage
	// hints only when a frame carries the count across the threshold,
	// and this epoch is already past it.
	if s.cfg.EpochReports > 0 && s.cur.Load().accepted.Load() >= int64(s.cfg.EpochReports) {
		select {
		case s.rotateHint <- struct{}{}:
		default:
		}
	}
	return s, nil
}

// restore applies the checkpoint, replays the WAL tail, and pays the
// ledger for what they show opened. It runs before any pipeline
// goroutine exists, so it mutates state freely.
func (s *Service) restore(rec *store.Recovered) error {
	cp := rec.Checkpoint
	openEpoch := 0
	exhausted := false
	if cp != nil {
		openEpoch = cp.OpenEpoch
		exhausted = cp.Exhausted
		s.wal = walCounters{received: cp.Received, rejected: cp.Rejected}
		s.late.Store(cp.Late)
		s.forwarded.Store(cp.Batches)
		for _, h := range cp.History {
			root, err := ldp.UnmarshalAggregator(s.cfg.FO, h.Root)
			if err != nil {
				return fmt.Errorf("service: restoring epoch %d root: %w", h.Epoch, err)
			}
			e := &epochState{
				id: h.Epoch, fo: s.cfg.FO, root: root, guarantee: h.Guarantee,
				frozen: true, frozenEst: root.Estimates(), frozenN: h.Reports,
			}
			e.batches.Store(h.Batches)
			s.history = append(s.history, e)
		}
	}

	cur := newEpochState(openEpoch, s.cfg.FO, s.workers)
	if exhausted {
		// No epoch is open: the current epoch is the last sealed one,
		// kept so Snapshot answers as the pre-crash service did.
		if len(s.history) == 0 {
			return errors.New("service: checkpoint records budget exhaustion but no sealed epoch")
		}
		cur = s.history[len(s.history)-1]
	}
	var pt []byte      // one record's plaintext
	var words []uint64 // its reports; codec.Fold copies out of them
	for _, r := range rec.Tail {
		switch r.Type {
		case store.RecordSealedReport:
			if exhausted || r.Epoch != uint32(cur.id) {
				return fmt.Errorf("service: WAL report for epoch %d while epoch %d is open", r.Epoch, cur.id)
			}
			// A record is one accepted frame, re-sealed whole under the
			// at-rest storage key (the connection key is gone with the
			// connection): unpack its plaintext with the readers' parse
			// and fold the words through the workers' fold. A plaintext
			// the parse refuses was not written by accept and is
			// refused, never skipped — dropping it would silently
			// shrink the epoch.
			var err error
			if pt, err = s.sealer.Open(pt[:0], r.Payload); err != nil {
				return fmt.Errorf("service: opening sealed WAL record: %w", err)
			}
			if words, err = s.codec.unpack(words[:0], pt); err != nil {
				return fmt.Errorf("service: sealed WAL record for epoch %d: %w", r.Epoch, err)
			}
			s.codec.Fold(cur.root, words)
			n := int64(len(words))
			cur.accepted.Add(n)
			s.wal.received += n
		case store.RecordDrop:
			if r.Reason == store.DropLate {
				s.late.Add(int64(r.Count))
			} else {
				s.wal.rejected += int64(r.Count)
			}
		case store.RecordRotate:
			if int64(cur.id) != int64(r.Epoch) {
				return fmt.Errorf("service: WAL rotate marker seals epoch %d while epoch %d is open", r.Epoch, cur.id)
			}
			// Replay the interrupted rotation: seal (which re-writes
			// the checkpoint the crash lost) and open the next epoch —
			// or latch exhaustion, exactly as the live Rotate did. What
			// the rotation paid is settled below, with the rest.
			if r.Next < 0 {
				exhausted = true
				s.exhausted.Store(true)
			}
			cur.cut = s.counters()
			s.seal(cur, r.Next >= 0)
			if r.Next >= 0 {
				cur = newEpochState(int(r.Next), s.cfg.FO, s.workers)
			}
		}
	}
	// Pay once for what the directory shows opened: through the open
	// epoch or, once the budget ran out, through the last sealed one.
	// An epoch a drain left open was never opened, so never paid for;
	// while nothing has been logged in it, it is the one payment the
	// ledger may refuse, and the service then recovers exhausted. Every
	// other refusal means the ledger's parameters are not the ones the
	// directory was written under.
	if s.cfg.Ledger != nil && !exhausted {
		drainLeft := cp != nil && !cp.OpenCharged && len(s.history) > 0 && cur.id == openEpoch && cur.accepted.Load() == 0
		err := s.pay(cur.id)
		switch {
		case err == nil:
		case drainLeft && errors.Is(err, budget.ErrExhausted):
			exhausted = true
			cur = s.history[len(s.history)-1]
		default:
			return fmt.Errorf("service: WAL opened epoch %d but the restored ledger refuses it (wrong ledger parameters?): %w", cur.id, err)
		}
	}
	if s.cfg.Ledger != nil && exhausted {
		if err := s.pay(cur.id); err != nil {
			return fmt.Errorf("service: restoring ledger: %d sealed epochs exceed the total budget (wrong ledger parameters?): %w", cur.id+1, err)
		}
		if s.cfg.Ledger.MaxEpochs() > cur.id+1 {
			return fmt.Errorf("service: WAL records budget exhaustion at epoch %d but the restored ledger still admits epochs", cur.id)
		}
	}
	if exhausted {
		s.exhausted.Store(true)
	}
	s.cur.Store(cur)
	s.received.Store(s.wal.received)
	s.rejected.Store(s.wal.rejected)
	return nil
}
