package service

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"shuffledp/internal/budget"
	"shuffledp/internal/composition"
	"shuffledp/internal/ldp"
	"shuffledp/internal/store"
)

// EpochCurrent is the frame tag a client stamps when it reports into
// whatever epoch the service currently has open (the common case: the
// client does not track the server's rotation schedule). Any other tag
// asserts a specific epoch id; the batch stage drops reports whose
// asserted epoch is not the open one and counts them as Late.
const EpochCurrent = ^uint32(0)

// EpochSnapshot is one sealed epoch: the collection round's estimate,
// frozen at rotation.
type EpochSnapshot struct {
	// Epoch is the epoch id, starting at 0.
	Epoch int
	// Estimates is the calibrated frequency estimate over the epoch's
	// reports.
	Estimates []float64
	// Reports is how many reports the epoch aggregated.
	Reports int
	// Batches is how many batches the epoch received.
	Batches int64
	// Guarantee is the per-epoch privacy guarantee the budget ledger
	// charged for this epoch (zero without a ledger).
	Guarantee composition.Guarantee
}

// WindowSnapshot is the merge of the last k sealed epochs — the
// service's sliding-window estimate.
type WindowSnapshot struct {
	// FromEpoch and ToEpoch bound the merged epoch ids (inclusive).
	FromEpoch, ToEpoch int
	// Epochs is how many epochs the window merged.
	Epochs int
	// Estimates is the merged calibrated estimate, bit-identical to a
	// sequential aggregation of the window's report multiset.
	Estimates []float64
	// Reports is the total report count across the window.
	Reports int
}

// walCounters is the batch stage's mirror of the two durable counts the
// live atomics cannot give: reports write-ahead logged (received; the
// live count also holds frames an in-memory service never logs) and
// rejected drops logged (rejected; logging stops at rejectedLogCap).
// Late drops and forwarded batches need no mirror: their atomics are
// written only under batchMu, so those are exact at every cut.
type walCounters struct {
	received, rejected int64
}

// epochState is one epoch: while open, a shard aggregator per worker
// plus the root they gather into; once sealed, the frozen root and
// estimate History and the window queries read. The pending WaitGroup
// counts batches forwarded to the workers but not yet folded; sealing
// waits on it so a sealed epoch provably covers every report routed to
// it.
type epochState struct {
	id int
	fo ldp.FrequencyOracle
	// shards are the workers' aggregators, nil once the epoch is
	// sealed.
	shards []*shard
	// pending counts forwarded-but-unfolded batches.
	pending sync.WaitGroup
	batches atomic.Int64
	// accepted counts reports the batch stage routed to this epoch
	// (batched or still buffered) — the auto-rotation trigger.
	accepted atomic.Int64
	// guarantee is what the ledger charged for the epoch, set at seal.
	guarantee composition.Guarantee

	// cut holds the durable counters at this epoch's rotation boundary;
	// written under batchMu at the marker (or by Drain after every
	// reader exits), read by seal for the checkpoint.
	cut store.Checkpoint

	rootMu sync.Mutex
	root   ldp.Aggregator
	// frozen flips at seal: from then on gather returns the cached
	// estimate and never touches root again, so window queries and
	// checkpoints can read sealed roots without racing a stale
	// Snapshot that still holds this epoch's pointer. It is written
	// under both rootMu and Service.rotateMu, so either guards a read.
	frozen    bool
	frozenEst []float64
	frozenN   int
}

// shard is one worker's slice of an epoch's aggregate. The mutex is
// held while a batch is folded in and while gather swaps the
// aggregator out.
type shard struct {
	mu  sync.Mutex
	agg ldp.Aggregator
}

func newEpochState(id int, fo ldp.FrequencyOracle, workers int) *epochState {
	e := &epochState{
		id:     id,
		fo:     fo,
		shards: make([]*shard, workers),
		root:   fo.NewAggregator(),
	}
	for i := range e.shards {
		e.shards[i] = &shard{agg: fo.NewAggregator()}
	}
	return e
}

// gather folds every non-empty shard into the epoch root (swapping in
// fresh shard aggregators) and returns the root's running estimate.
// It is the per-epoch form of PR 2's Snapshot swap: a consistent
// prefix of the epoch's stream at the cost of a pointer swap per
// shard, never a recompute. On a sealed (frozen) epoch it returns a
// copy of the frozen estimate instead — a Snapshot that loaded the
// epoch pointer just before a Rotate sealed it must never mutate, or
// half-observe, the sealed root.
func (e *epochState) gather() ([]float64, int) {
	e.rootMu.Lock()
	defer e.rootMu.Unlock()
	if e.frozen {
		return append([]float64(nil), e.frozenEst...), e.frozenN
	}
	e.fold()
	return e.root.Estimates(), e.root.Count()
}

// fold drains every non-empty shard into the root. Callers hold
// rootMu.
func (e *epochState) fold() {
	for _, sh := range e.shards {
		sh.mu.Lock()
		if sh.agg.Count() > 0 {
			full := sh.agg
			sh.agg = e.fo.NewAggregator()
			e.root.Merge(full)
		}
		sh.mu.Unlock()
	}
}

// freeze folds the shards one final time, drops them, caches the
// estimate, and marks the epoch frozen: from here on the root is
// immutable (gather no-ops into the cache), which is what makes
// cloning it for the window queries race-free. Called by seal with
// every batch already folded (pending waited out).
func (e *epochState) freeze() {
	e.rootMu.Lock()
	defer e.rootMu.Unlock()
	e.fold()
	e.shards = nil
	e.frozenEst = e.root.Estimates()
	e.frozenN = e.root.Count()
	e.frozen = true
}

// snapshot is a sealed epoch's History entry.
func (e *epochState) snapshot() EpochSnapshot {
	return EpochSnapshot{
		Epoch:     e.id,
		Estimates: e.frozenEst,
		Reports:   e.frozenN,
		Batches:   e.batches.Load(),
		Guarantee: e.guarantee,
	}
}

// Rotate seals the current epoch and opens the next one: under batchMu,
// between two frames, the epoch's partial batch is flushed and the open
// epoch switched; every batch already routed to the sealed epoch is
// waited for, and the epoch's estimate is frozen into History.
//
// When a budget ledger is configured, opening the next epoch charges
// it one per-epoch guarantee. If the ledger refuses, the current epoch
// still seals — its collection already happened — but no new epoch
// opens: Rotate returns the sealed snapshot together with an error
// wrapping budget.ErrExhausted, and from then on the service refuses
// ingestion (Ingest errors, frames from connected clients are dropped
// and counted as Snapshot.Rejected).
func (s *Service) Rotate() (EpochSnapshot, error) {
	s.rotateMu.Lock()
	defer s.rotateMu.Unlock()
	if s.stopped() {
		return EpochSnapshot{}, errors.New("service: closed")
	}
	if s.drained {
		return EpochSnapshot{}, errors.New("service: draining")
	}
	if s.exhausted.Load() {
		return EpochSnapshot{}, fmt.Errorf("service: no epoch open: %w", budget.ErrExhausted)
	}
	cur := s.cur.Load()

	// Pay for the next epoch before swapping so an exhausted ledger
	// never opens an epoch it cannot pay for.
	var next *epochState
	chargeErr := s.pay(cur.id + 1)
	if chargeErr != nil && !errors.Is(chargeErr, budget.ErrExhausted) {
		return EpochSnapshot{}, fmt.Errorf("service: charging epoch %d: %w", cur.id+1, chargeErr)
	}
	if chargeErr == nil {
		next = newEpochState(cur.id+1, s.cfg.FO, s.workers)
	}

	// The cut lands after every frame already accepted, so a caller
	// that saw Received == n before rotating knows all n reports belong
	// to the sealed epoch.
	s.batchMu.Lock()
	partial := s.flushPartial()
	if s.st != nil {
		// The marker and everything before it go durable now: no record
		// of the next epoch can reach disk ahead of the boundary that
		// separates the epochs, and the sealing checkpoint gets a
		// counter snapshot taken exactly at the cut.
		n := int64(-1)
		if next != nil {
			n = int64(next.id)
		}
		if err := s.st.Rotate(uint32(cur.id), n); err != nil {
			s.fail(fmt.Errorf("service: WAL rotate marker: %w", err))
		}
		cur.cut = s.counters()
	}
	if next != nil {
		s.cur.Store(next)
	} else {
		// No epoch opens: from here on accept rejects every frame.
		s.exhausted.Store(true)
	}
	// A hint generated by the epoch that just closed is stale; dropping
	// it here (the rotator re-checks anyway) keeps the fresh epoch from
	// being cut near-empty.
	select {
	case <-s.rotateHint:
	default:
	}
	s.batchMu.Unlock()
	for _, eb := range partial {
		s.foldBatch(0, eb)
	}

	// Wait for every batch routed to the sealed epoch to be folded,
	// then freeze it. The opened epoch (if any) is already paid for,
	// which the seal's checkpoint records as OpenCharged.
	cur.pending.Wait()
	snap := s.seal(cur, next != nil)
	if chargeErr != nil {
		return snap, fmt.Errorf("service: epoch %d sealed, next refused: %w", cur.id, chargeErr)
	}
	return snap, nil
}

// seal freezes a fully-folded epoch — one last fold of its shards,
// which it then drops — records it in the history, and, when the
// service is durable, writes the checkpoint that makes the seal
// survive a crash. openCharged says whether the epoch the seal leaves
// open is already paid for (true after a successful rotation, false
// for a drain seal and an exhausting rotation); the checkpoint records
// it so recovery knows whether a ledger refusing that epoch is an
// error or the budget running out. Callers hold rotateMu. The freeze
// happens before the root is shared, so a Snapshot still holding this
// epoch's pointer can only read the frozen cache, never mutate a
// sealed root (the Snapshot/Rotate race TestSnapshotDuringRotate
// locks in).
func (s *Service) seal(e *epochState, openCharged bool) EpochSnapshot {
	if e.frozen {
		// Drain after an exhausting Rotate: the final epoch is already
		// in the history.
		return s.lastSealed()
	}
	if s.cfg.Ledger != nil {
		e.guarantee = s.cfg.Ledger.PerEpoch()
	}
	e.freeze()

	s.histMu.Lock()
	s.history = append(s.history, e)
	s.histMu.Unlock()

	if s.st != nil {
		if err := s.writeCheckpoint(e, openCharged); err != nil {
			s.fail(fmt.Errorf("service: checkpointing epoch %d seal: %w", e.id, err))
		}
	}
	return e.snapshot()
}

// writeCheckpoint snapshots the whole durable state after sealing e:
// the history's frozen roots, whether the epoch the seal leaves open
// is paid for, and the counters stamped into e at its cut. Callers
// hold rotateMu, which orders checkpoints with rotations and Drain's
// final seal.
func (s *Service) writeCheckpoint(e *epochState, openCharged bool) error {
	cp := e.cut
	cp.OpenEpoch = e.id + 1
	cp.Exhausted = s.exhausted.Load()
	cp.OpenCharged = openCharged
	// Marshal the history under histMu, but run the checkpoint's disk
	// writes (fsync, rename, fsync) outside it: History, EstimateWindow,
	// and Snapshot must not stall behind a slow disk. rotateMu — which
	// every seal holds — is what serializes checkpoint writers.
	s.histMu.Lock()
	for _, h := range s.history {
		root, err := h.root.MarshalBinary()
		if err != nil {
			s.histMu.Unlock()
			return err
		}
		cp.History = append(cp.History, store.EpochCheckpoint{
			Epoch:     h.id,
			Reports:   h.frozenN,
			Batches:   h.batches.Load(),
			Guarantee: h.guarantee,
			Root:      root,
		})
	}
	s.histMu.Unlock()
	return s.st.WriteCheckpoint(&cp)
}

// counters stamps the durable counters into a checkpoint: received
// and rejected from the WAL mirror, late and batches from the atomics
// written only under batchMu. Callers hold batchMu, or are restore and
// Drain while no reader runs.
func (s *Service) counters() store.Checkpoint {
	return store.Checkpoint{
		Received: s.wal.received,
		Late:     s.late.Load(),
		Rejected: s.wal.rejected,
		Batches:  s.forwarded.Load(),
	}
}

// lastSealed returns the most recent history snapshot (zero value if
// none).
func (s *Service) lastSealed() EpochSnapshot {
	s.histMu.Lock()
	defer s.histMu.Unlock()
	if len(s.history) == 0 {
		return EpochSnapshot{}
	}
	return s.history[len(s.history)-1].snapshot()
}

// Epoch returns the id of the epoch currently open (the id of the last
// epoch once the budget is exhausted).
func (s *Service) Epoch() int { return s.cur.Load().id }

// Exhausted reports whether the budget ledger has refused to open
// another epoch; an exhausted service rejects ingestion but stays
// queryable.
func (s *Service) Exhausted() bool { return s.exhausted.Load() }

// History returns the retained sealed-epoch snapshots, oldest first.
func (s *Service) History() []EpochSnapshot {
	s.histMu.Lock()
	defer s.histMu.Unlock()
	out := make([]EpochSnapshot, len(s.history))
	for i, e := range s.history {
		out[i] = e.snapshot()
	}
	return out
}

// EstimateWindow merges the last k sealed epochs into one estimate
// using the oracle Merge machinery over clones of the sealed roots, so
// the result is bit-identical to aggregating the window's report
// multiset sequentially — and the sealed epochs themselves are
// untouched and can be window-queried again. k <= 0 means every
// sealed epoch; k larger than the history is an error.
func (s *Service) EstimateWindow(k int) (WindowSnapshot, error) {
	s.histMu.Lock()
	defer s.histMu.Unlock()
	if len(s.history) == 0 {
		return WindowSnapshot{}, errors.New("service: no sealed epochs to window over")
	}
	if k > len(s.history) {
		return WindowSnapshot{}, fmt.Errorf("service: window of %d epochs, only %d sealed epochs retained", k, len(s.history))
	}
	if k <= 0 {
		k = len(s.history)
	}
	recs := s.history[len(s.history)-k:]
	agg := recs[0].root.Clone()
	for _, e := range recs[1:] {
		agg.Merge(e.root.Clone())
	}
	return WindowSnapshot{
		FromEpoch: recs[0].id,
		ToEpoch:   recs[len(recs)-1].id,
		Epochs:    k,
		Estimates: agg.Estimates(),
		Reports:   agg.Count(),
	}, nil
}

// Snapshot returns the open epoch's current estimate without stopping
// ingestion: each shard aggregator is swapped for a fresh one and
// merged into the epoch root, so the snapshot is a consistent prefix
// of the epoch's stream and costs the workers only the swap, never a
// full recompute.
func (s *Service) Snapshot() Snapshot {
	e := s.cur.Load()
	est, n := e.gather()
	return s.snapshotOf(e.id, est, n)
}

// snapshotOf stamps the live counters beside an estimate over reports.
func (s *Service) snapshotOf(epoch int, est []float64, reports int) Snapshot {
	return Snapshot{
		Estimates:  est,
		Reports:    reports,
		Received:   s.received.Load(),
		Batches:    s.forwarded.Load(),
		Epoch:      epoch,
		Late:       s.late.Load(),
		Rejected:   s.rejected.Load(),
		IdleClosed: s.idleClosed.Load(),
		Kicked:     s.kicked.Load(),
	}
}

// Drain gracefully shuts the pipeline down: stop accepting, wait for
// every ingested connection to close, flush the partial batch, wait
// for the workers, seal the final epoch into History, and return the
// all-time snapshot — every sealed epoch merged, as EstimateWindow(0)
// merges them, bit-identical to a sequential pass over the full
// stream. The returned error is the
// first failure observed anywhere in the pipeline (a run with a
// corrupt report is not silently trusted).
func (s *Service) Drain() (Snapshot, error) {
	s.drainOnce.Do(func() {
		// Under mu so the flip is atomic with Ingest's check-and-register:
		// after this section, every registered reader is counted in conns.
		s.mu.Lock()
		s.draining.Store(true)
		s.mu.Unlock()
		close(s.drainStart)
		s.rotatorWG.Wait()
		s.closeListeners()
		s.conns.Wait()
		// Every reader has exited: flush the partial batch, then let the
		// workers finish the queue.
		s.rotateMu.Lock()
		s.drained = true
		s.batchMu.Lock()
		partial := s.flushPartial()
		s.batchMu.Unlock()
		for _, eb := range partial {
			s.foldBatch(0, eb)
		}
		close(s.batches)
		s.workerPool.Wait()
		// Every batch is folded; seal the final epoch (a no-op if an
		// exhausting Rotate already did).
		e := s.cur.Load()
		if s.st != nil {
			// No reader is left, so the counters are final: the drain
			// seal's checkpoint covers the whole stream. The epoch the
			// checkpoint leaves "open" only ever opens if the directory
			// is recovered — and is paid for then, not now.
			e.cut = s.counters()
		}
		s.seal(e, false)
		if s.st != nil {
			if err := s.st.Close(); err != nil {
				s.fail(fmt.Errorf("service: closing WAL: %w", err))
			}
		}
		s.rotateMu.Unlock()
		// The drain seal leaves the history non-empty, so the merge
		// cannot fail.
		all, _ := s.EstimateWindow(0)
		s.drainSnap = s.snapshotOf(e.id, all.Estimates, all.Reports)
		s.drainErr = s.Err()
	})
	return s.drainSnap, s.drainErr
}

// runRotator turns the batch stage's report-count hints into rotations
// when Config.EpochReports is set. A hint can outlive the epoch that
// generated it (a manual Rotate may land in between), so the rotator
// re-checks the open epoch's accepted count before cutting — a stale
// hint must not seal a near-empty epoch and burn one of the ledger's
// finite per-epoch charges. Skipping is safe: every epoch fires its
// own hint when its count crosses the threshold. Rotation errors are
// deliberately not fatal here: an exhausted ledger flips the service
// into its rejected-ingestion state, which Ingest and Snapshot
// surface.
func (s *Service) runRotator() {
	defer s.rotatorWG.Done()
	for {
		select {
		case <-s.rotateHint:
			if s.cur.Load().accepted.Load() >= int64(s.cfg.EpochReports) {
				_, _ = s.Rotate()
			}
		case <-s.drainStart:
			return
		case <-s.stop:
			return
		}
	}
}
