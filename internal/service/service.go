// Package service is the concurrent streaming face of the basic
// shuffle model (Figure 1): a long-running ingestion tier that accepts
// framed, end-to-end encrypted reports from many client connections at
// once, batches them, and folds the decrypted reports into mergeable
// per-worker aggregators so the running histogram is available at any
// point mid-stream.
//
// Pipeline stages, each a bounded queue ahead of it (backpressure
// propagates from a slow stage back to the clients' writes):
//
//	conn readers  --intake-->  shuffler  --batches-->  aggregate
//	(one per conn,  (frames)   (copy into  (record runs) (one fold
//	 session open)              a run)                    per run)
//
// The unit of hand-off on the intake edge is the opened session frame,
// not the report: a reader authenticates a frame and passes its whole
// plaintext on in one channel send, and the shuffler copies its
// records into the open batch — one flat run of Codec.Size() records,
// in arrival order — and gives the frame's buffer back to a free list
// the readers open into; a worker gives a run back once it is
// folded. A per-report hand-off cost more than
// everything else the tier does to a report (EXPERIMENTS.md, "Spend
// the profile"). A worker folds a whole run through Codec.Fold, the fold
// WAL replay uses too: word reports reach the aggregator's counting
// kernel as words, with no Report in between.
//
// # Wire protocol
//
// Every connection speaks the session protocol: it pays one
// ECIES-grade handshake (ecies.NewClientSession) when it connects and
// then streams batches of reports sealed under a per-connection
// AES-GCM key with a strict monotonic frame counter, so the per-report
// crypto cost is a slice of one AEAD open. The first frame must be the
// session hello; a connection that opens with anything else is kicked
// (see readConn). DESIGN.md ("Session wire protocol") specifies the
// handshake transcript and nonce discipline.
//
// # Trust model
//
// The tier is the paper's shuffler and server in one trusted process
// (§III): it opens every session frame, so it knows which connection
// sent each report, and a permutation inside it would hide nothing
// from it. Nothing outside can observe the order — folds, snapshots
// and releases are integer counts over whole runs, and the WAL keeps
// arrival order — so the shuffler stage permutes nothing: it cuts
// runs, the workers' hand-off unit. The ε the ledger charges holds
// against readers of what the service releases, amplified over the
// reports each release aggregates; against the service's own operator
// only the oracle's ε_l holds. The deployment for an untrusted server
// is the PEOS cluster (internal/cluster).
//
// # Epochs
//
// The paper analyzes one collection round; a deployed service
// re-collects the same population every epoch, so the tier is epochal:
// the stream is cut into epochs, each owning its own shard-aggregator
// set. Rotate seals the open epoch — freezing its estimate into
// History — and opens the next; sealed epochs answer sliding-window
// queries through EstimateWindow, which clone-merges their
// aggregators. A budget.Ledger composes the
// per-epoch (eps, delta) loss across rotations (naive or advanced
// composition) and, once the configured total budget is exhausted, the
// service refuses further ingestion while staying queryable. Report
// frames carry the epoch id the client asserts (transport tagged
// frames); EpochCurrent means "whatever is open", and reports
// asserting a closed epoch are dropped and counted rather than
// silently folded into the wrong round.
//
// Aggregation relies on PR 1's mergeable aggregators: every oracle
// accumulates exactly representable integer statistics, so the merged
// estimates are bit-identical to a sequential pass over the same
// reports in any order, at any worker count, for any batch boundary —
// and, with epochs, for any rotation boundary once the epochs are
// merged back together.
package service

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"shuffledp/internal/budget"
	"shuffledp/internal/ecies"
	"shuffledp/internal/ldp"
	"shuffledp/internal/pipeline"
	"shuffledp/internal/store"
	"shuffledp/internal/transport"
)

// Party names used for transport.Meter accounting, matching the rows
// of the paper's Table III.
const (
	PartyUsers    = "users"
	PartyShuffler = "shuffler"
	PartyServer   = "server"
)

// DefaultBatchSize is the run size when Config.BatchSize is zero:
// large enough to amortize a worker hand-off, small enough that
// snapshots stay fresh under light traffic.
const DefaultBatchSize = 512

// DefaultMaxFrame caps a single report frame's length prefix:
// comfortably above any real hello, report, or batch frame, far below
// transport.MaxFrameSize's 1 GiB defensive ceiling. A connection
// claiming a larger frame is kicked — closed and counted in
// Snapshot.Kicked — before any payload byte is read, so one hostile
// length prefix can neither fail the service nor balloon its memory.
const DefaultMaxFrame = 4 << 20

// DefaultClientBatch is the session client's reports-per-frame when
// NewSessionClient is given a batch size of zero: large enough to
// amortize framing and AEAD costs, small enough that a flush stays
// well under DefaultMaxFrame for every oracle in the repo.
const DefaultClientBatch = 256

// SessionHelloTag is the frame tag of a session hello — the tag a
// session client stamps on the FIRST frame of a connection, and the
// only first frame the service accepts: a connection that opens with
// any other tag is kicked. On every later frame the tag is the epoch
// id the batch asserts (epoch ids count up from zero, far from this
// magic), so a hello tag mid-stream is not special — re-keying a
// connection is impossible by construction.
const SessionHelloTag = 0x53445031 // "SDP1"

// rejectedLogCap bounds how many post-exhaustion rejected reports are
// write-ahead logged. A rejected frame is one 18-byte counted drop, so
// the cap holds the WAL to about 2 MiB even against one-report frames.
// An exhausted service never checkpoints again, so these records are
// never pruned; beyond the cap drops are still counted in-memory but no
// longer durable.
const rejectedLogCap = 1 << 17

// Config parameterizes a Service.
type Config struct {
	// FO is the frequency oracle every client reports through.
	FO ldp.FrequencyOracle
	// Key decrypts the end-to-end encrypted reports (the analysis
	// server's role).
	Key *ecies.PrivateKey
	// BatchSize is the number of reports in one run, the unit the
	// workers take. 0 means DefaultBatchSize.
	BatchSize int
	// ShuffleSeed is ignored: the service cuts runs in arrival order
	// and permutes nothing (DESIGN.md §6, "Trust model"). It stays
	// only because the frozen benchmark harness sets it, and goes with
	// ROADMAP item 6(e).
	ShuffleSeed uint64
	// Meter, when non-nil, accounts bytes and CPU to users/shuffler/
	// server.
	Meter *transport.Meter

	// IdleTimeout bounds the silence a connection reader tolerates
	// between report frames. A client that stalls past it is
	// disconnected (and counted in Snapshot.IdleClosed) instead of
	// pinning its reader goroutine — and, transitively, Drain —
	// forever. 0 means no bound, the pre-PR-5 behavior.
	IdleTimeout time.Duration

	// maxFrame, set only by the package's tests, lowers the frame cap
	// below DefaultMaxFrame. 0 means DefaultMaxFrame.
	maxFrame int

	// Ledger, when non-nil, pays one per-epoch guarantee for each epoch
	// id the service opens (epoch 0 at New), never twice for one id.
	// Once it refuses, the service seals the open epoch at the next
	// Rotate and rejects ingestion from then on.
	Ledger *budget.Ledger
	// EpochReports, when > 0, auto-rotates once the open epoch has
	// accepted at least this many reports. The count advances a whole
	// session frame at a time and the cut lands between frames, after
	// whatever the intake already held, so epochs run long by up to one
	// frame plus the frames that arrived while the rotation was on its
	// way. 0 means epochs rotate only through explicit Rotate calls.
	EpochReports int

	// DataDir, when non-empty, makes the service durable: every
	// accepted session frame is write-ahead logged — one at-rest seal,
	// one record — before any of its reports is batched toward a
	// worker, and every epoch seal writes a checkpoint, so a crashed
	// service restarts with Recover to a state bit-identical to an
	// uninterrupted run (DESIGN.md §8). New requires the directory to
	// hold no prior state — recovering over it is Recover's job, never
	// an accident.
	DataDir string
	// Sync is the WAL fsync policy (store.SyncBatch when zero): always
	// fsyncs every accepted frame before any of its reports is batched,
	// batch fsyncs at every batch boundary, none only between
	// checkpoints. Whatever a crash tears away is whole frames, so the
	// recovered Received count sits on a frame boundary. Rotation
	// markers and checkpoints are always fsynced.
	Sync store.SyncPolicy
}

// Snapshot is the service's state at one instant.
type Snapshot struct {
	// Estimates is the calibrated frequency estimate over the open
	// epoch's reports so far (all epochs merged when returned by
	// Drain; all zeros before any report lands).
	Estimates []float64
	// Reports is how many reports Estimates covers.
	Reports int
	// Received is how many reports are in the pipeline or aggregated:
	// reports the readers accepted minus reports later dropped (those
	// move to Late or Rejected instead, the three counters are
	// disjoint). All three advance a whole session frame at a time — a
	// frame's reports are accepted, late or rejected together —
	// never report by report. Received is cumulative across epochs
	// while Reports covers the open epoch only, so mid-stream the
	// in-flight backlog is Received minus Reports minus the reports
	// already sealed into History; in a Drain snapshot (all epochs
	// merged) it is simply Received - Reports.
	Received int64
	// Batches is how many batches have been forwarded to the
	// workers (across all epochs).
	Batches int64
	// Epoch is the open epoch's id (the last epoch's id once the
	// budget is exhausted).
	Epoch int
	// Late counts reports dropped because they asserted an epoch that
	// is not the open one.
	Late int64
	// Rejected counts reports dropped after the budget ledger
	// exhausted.
	Rejected int64
	// IdleClosed counts connections dropped for staying silent past
	// Config.IdleTimeout. Reports those connections delivered before
	// stalling were accepted normally; the counter is in-memory only
	// (an operator signal, not part of the durable stream accounting).
	IdleClosed int64
	// Kicked counts connections dropped for a protocol violation: a
	// frame past DefaultMaxFrame, a malformed session hello, or a
	// session frame that failed authentication or arrived out of
	// sequence. Reports the connection delivered before violating
	// were accepted normally; like IdleClosed the counter is
	// in-memory only.
	Kicked int64
}

// intakeFrames is the intake queue's capacity in opened session
// frames: enough that a reader can open its next frame while the
// shuffler splits the previous one. It is a constant, not a knob:
// capacities 1, 4 and 16 measured no better than 2 on either service
// benchmark workload (EXPERIMENTS.md, "Spend the profile"), and each
// slot can pin a DefaultMaxFrame-sized plaintext, which is the reason
// to keep it small.
const intakeFrames = 2

// queuedBatchesPerWorker sizes the batches queue: that many
// batches per decode + aggregate worker (GOMAXPROCS of them, counted at
// New or Recover) may wait before the shuffler — and transitively the
// clients — block. The shuffler is a single goroutine feeding every
// worker, so it needs enough buffered batches to keep them fed across
// its own stalls (a rotation's fsync, a frame's seal and append). With
// that work per frame, not per report, ten alternated 12 s pairs still
// read 2 per worker behind 5 in nine on svc_durable_query_d1024
// (median -3.3%) and in eight on svc_wire_d64, which has no WAL
// (median -7.1%): EXPERIMENTS.md, "The frame is the unit of
// durability".
const queuedBatchesPerWorker = 5

// frameBlock is one opened session frame on its way to the shuffler:
// the whole authenticated plaintext — a whole number of codec.Size()
// records, checked by the reader — with the epoch id the frame
// asserted, and the free list of the connection that opened it.
type frameBlock struct {
	epoch uint32
	recs  []byte
	// home is the reader's own one-buffer free list. The shuffler gives
	// recs back there first and to the service's list only when home is
	// full, so the one opened frame each connection may hold on top of
	// the intake and the shuffler's (DESIGN.md §6) comes back to it.
	home chan []byte
}

// epochBatch is one batch — a run of codec.Size() records —
// routed to the epoch that was open when it was flushed.
type epochBatch struct {
	ep  *epochState
	run []byte
}

// Service is a running ingestion pipeline. Create with New, feed it
// connections with Serve or Ingest, read the live estimate with
// Snapshot, cut the stream into collection rounds with Rotate (or
// Config.EpochReports), query rounds with History and EstimateWindow,
// and finish with Drain (graceful) or Close (abort).
type Service struct {
	cfg   Config
	codec *Codec
	// workers is the decode + aggregate pool size, and so every epoch's
	// shard count: GOMAXPROCS when the service was built.
	workers int

	intake  chan frameBlock // opened session frames, readers -> shuffler
	batches chan epochBatch // record runs, shuffler -> aggregate pool

	// plains and runs are the free lists of the ingest path's two
	// buffers: opened frame plaintexts (a reader takes one, the shuffler
	// gives it back once the frame is logged and batched) and record
	// runs (the batcher takes one, a worker gives it back after its
	// fold). Each is capped at its buffers' in-flight count past the
	// readers (DESIGN.md §6) — the intake's frames plus the one the
	// shuffler is accepting; the queue's runs plus one in each worker's
	// hand and the one the batcher is filling — and a buffer given back
	// to a full list is dropped.
	plains chan []byte
	runs   chan []byte

	stop     chan struct{}
	stopOnce sync.Once
	draining atomic.Bool

	conns        sync.WaitGroup // active connection readers
	shufflerPool pipeline.Pool  // the single batch-shuffler stage goroutine
	workerPool   pipeline.Pool  // decode + aggregate stage workers

	// sealer re-encrypts accepted frames for the WAL (their wire
	// framing is under a connection-ephemeral key recovery could never
	// re-derive), sealBuf is its shuffler-owned output scratch. Nil for
	// an in-memory service.
	sealer  *ecies.StorageSealer
	sealBuf []byte

	mu        sync.Mutex
	listeners []net.Listener
	active    map[net.Conn]struct{}
	firstErr  error

	// cur is the open epoch (stays on the last epoch once exhausted).
	cur       atomic.Pointer[epochState]
	exhausted atomic.Bool

	// rotateMu serializes Rotate and Drain's final seal.
	rotateMu     sync.Mutex
	rotateCh     chan rotateReq
	rotateHint   chan struct{}
	rotatorWG    sync.WaitGroup
	shufflerDone chan struct{}
	drainStart   chan struct{}

	// history is every sealed epoch, oldest first: the only record of
	// what the service sealed. Drain's all-time estimate is its merge.
	histMu  sync.Mutex
	history []*epochState

	// st is the durability layer, nil for an in-memory service. wal is
	// the shuffler-owned durable-counter mirror (Recover seeds it
	// before the shuffler starts).
	st  *store.Store
	wal walCounters

	received   atomic.Int64
	forwarded  atomic.Int64
	late       atomic.Int64
	rejected   atomic.Int64
	idleClosed atomic.Int64
	kicked     atomic.Int64

	drainOnce sync.Once
	drainSnap Snapshot
	drainErr  error
}

// New validates cfg, opens the data directory when the service is
// durable, pays the ledger for epoch 0, starts the shuffler and worker
// stages, and returns the running (but not yet listening) service. A
// directory that already holds state is refused before anything is
// paid.
func New(cfg Config) (*Service, error) {
	s, err := prepare(cfg)
	if err != nil {
		return nil, err
	}
	if s.cfg.DataDir != "" {
		st, err := store.Create(s.cfg.DataDir, s.storeMeta(), s.cfg.Sync)
		if err != nil {
			if errors.Is(err, store.ErrExists) {
				return nil, fmt.Errorf("service: %w (restart it with Recover instead of New)", err)
			}
			return nil, err
		}
		s.st = st
		if s.sealer, err = ecies.NewStorageSealer(s.cfg.Key); err != nil {
			st.Close()
			return nil, err
		}
	}
	if err := s.pay(0); err != nil {
		if s.st != nil {
			s.st.Close()
		}
		return nil, fmt.Errorf("service: charging epoch 0: %w", err)
	}
	s.cur.Store(newEpochState(0, s.cfg.FO, s.workers))
	s.start()
	return s, nil
}

// pay pays the ledger through epoch id, the one place the service
// spends budget: New pays for epoch 0, Rotate for the epoch it opens,
// and Recover for every epoch the data directory shows opened.
func (s *Service) pay(id int) error {
	if s.cfg.Ledger == nil {
		return nil
	}
	return s.cfg.Ledger.PayThrough(id)
}

// prepare validates and normalizes cfg and builds the service shell:
// channels, but no epoch, no ledger charge, no store, and no
// goroutines. New and Recover share it and differ only in how they
// produce the initial state.
func prepare(cfg Config) (*Service, error) {
	if cfg.FO == nil {
		return nil, errors.New("service: config needs a frequency oracle")
	}
	if cfg.Key == nil {
		return nil, errors.New("service: config needs the server's private key")
	}
	codec, err := NewCodec(cfg.FO)
	if err != nil {
		return nil, err
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = DefaultBatchSize
	}
	if cfg.maxFrame <= 0 {
		cfg.maxFrame = DefaultMaxFrame
	}
	workers := runtime.GOMAXPROCS(0)
	s := &Service{
		cfg:     cfg,
		codec:   codec,
		workers: workers,
		// Past intakeFrames of slack the readers block and the clients
		// feel backpressure through their connection writes.
		intake:       make(chan frameBlock, intakeFrames),
		batches:      make(chan epochBatch, queuedBatchesPerWorker*workers),
		plains:       make(chan []byte, intakeFrames+1),
		runs:         make(chan []byte, (queuedBatchesPerWorker+1)*workers+1),
		stop:         make(chan struct{}),
		rotateCh:     make(chan rotateReq),
		rotateHint:   make(chan struct{}, 1),
		shufflerDone: make(chan struct{}),
		drainStart:   make(chan struct{}),
	}
	return s, nil
}

// storeMeta is the configuration fingerprint stamped into checkpoints.
func (s *Service) storeMeta() store.Meta {
	return store.Meta{Oracle: s.cfg.FO.Name(), Domain: s.cfg.FO.Domain()}
}

// start launches the pipeline goroutines over the already-installed
// current epoch.
func (s *Service) start() {
	s.shufflerPool.Go(1, func(int) { s.runShuffler() })
	s.workerPool.Go(s.workers, s.runWorker)
	if s.cfg.EpochReports > 0 {
		s.rotatorWG.Add(1)
		go s.runRotator()
	}
}

// Serve accepts connections from ln and ingests each until the
// listener closes (Drain and Close close registered listeners, which
// makes Serve return nil).
//
// Drain waits only for connections Serve has already accepted: a
// connection still sitting in the listener's backlog at the cutoff is
// discarded with whatever frames it carried. A client that writes its
// frames into kernel buffers and disconnects — cheap with the batched
// session protocol — can therefore outrun the accept loop. Callers
// coordinating a fixed workload should wait until Snapshot accounts
// for every frame (as cmd/shuffled does) before draining.
func (s *Service) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining.Load() {
		s.mu.Unlock()
		ln.Close()
		return errors.New("service: draining")
	}
	s.listeners = append(s.listeners, ln)
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.draining.Load() || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		_ = s.Ingest(conn)
	}
}

// Ingest registers one established connection: a reader goroutine
// consumes its report frames until the peer closes (EOF is the
// client's "done"). Drain waits for every ingested connection. An
// exhausted budget refuses the connection.
//
// The draining check and the registration are one critical section:
// Drain flips draining under the same mutex, so once Drain proceeds to
// conns.Wait no connection can slip in behind it (whose reader would
// outlive the wait and write to the closed intake channel).
func (s *Service) Ingest(conn net.Conn) error {
	if s.exhausted.Load() {
		conn.Close()
		return fmt.Errorf("service: refusing connection: %w", budget.ErrExhausted)
	}
	s.mu.Lock()
	if s.draining.Load() {
		s.mu.Unlock()
		conn.Close()
		return errors.New("service: draining")
	}
	if s.active == nil {
		s.active = make(map[net.Conn]struct{})
	}
	s.active[conn] = struct{}{}
	s.conns.Add(1)
	s.mu.Unlock()
	if s.stopped() {
		// Close raced with Ingest: drop the connection rather than
		// leaving a reader Drain would wait on forever.
		s.conns.Done()
		s.forget(conn)
		conn.Close()
		return errors.New("service: closed")
	}
	go s.readConn(conn)
	return nil
}

func (s *Service) forget(conn net.Conn) {
	s.mu.Lock()
	delete(s.active, conn)
	s.mu.Unlock()
}

// errStopIngest is the reader sentinel for "the service is stopping":
// the loop ends, but the connection did not fail.
var errStopIngest = errors.New("service: stopping")

// errKickConn wraps connection-scoped protocol violations — a bad
// session hello, a session frame failing authentication or sequence,
// a misaligned batch. The connection is dropped and counted in
// Snapshot.Kicked; the service (and every other connection) carries
// on.
var errKickConn = errors.New("service: kicking connection")

// readConn is the ingest stage for one connection: a pipeline.Reader
// feeding the intake queue, deadline-guarded so a stalled client is
// disconnected (Snapshot.IdleClosed) instead of pinning this goroutine
// — and Drain's conns.Wait — forever.
//
// The first frame must be a SessionHelloTag frame, which performs the
// session handshake: every later frame is then one AEAD-sealed batch
// of codec-marshalled reports, opened and checked here and handed to
// the shuffler whole — one intake send per frame — so the rest of the
// pipeline sees only authenticated, record-aligned plaintext. Protocol
// violations (oversized frame, missing or bad hello, failed AEAD,
// replayed or reordered counter, misaligned batch) kick only this
// connection.
func (s *Service) readConn(conn net.Conn) {
	defer s.conns.Done()
	defer s.forget(conn)
	defer conn.Close()
	var sess *ecies.Session
	size := s.codec.Size()
	home := make(chan []byte, 1)
	rd := &pipeline.Reader{
		Conn:        conn,
		IdleTimeout: s.cfg.IdleTimeout,
		MaxFrame:    s.cfg.maxFrame,
		Handle: func(tag uint32, frame []byte) error {
			if sess == nil {
				if tag != SessionHelloTag {
					return fmt.Errorf("%w: first frame has tag %#x, not the session hello", errKickConn, tag)
				}
				ns, err := ecies.NewServerSession(s.cfg.Key, frame)
				if err != nil {
					return fmt.Errorf("%w: %v", errKickConn, err)
				}
				sess = ns
				return nil
			}
			s.cfg.Meter.Send(PartyUsers, PartyShuffler, len(frame))
			// Session batch frame: the tag is the epoch the whole
			// batch asserts. The plaintext opens into a buffer given
			// back to this connection or, failing that, one from the
			// service's free list (a fresh one only when both are
			// empty); the shuffler gives it back once it has logged the
			// frame and copied its records into a run.
			if len(frame) < ecies.SessionOverhead+size {
				return fmt.Errorf("%w: short session frame (%d bytes)", errKickConn, len(frame))
			}
			pt, err := sess.Open(take(home, s.plains)[:0], frame)
			if err != nil {
				return fmt.Errorf("%w: %v", errKickConn, err)
			}
			if len(pt)%size != 0 {
				return fmt.Errorf("%w: session batch of %d bytes is not a whole number of %d-byte reports", errKickConn, len(pt), size)
			}
			// Post-exhaustion frames flow to the shuffler too: it is the
			// single goroutine that counts AND write-ahead logs rejected
			// drops, so the Rejected counter survives a crash like the
			// others.
			select {
			case s.intake <- frameBlock{epoch: tag, recs: pt, home: home}:
				s.received.Add(int64(len(pt) / size))
				return nil
			case <-s.stop:
				return errStopIngest
			}
		},
	}
	switch err := rd.Run(); {
	case err == nil || errors.Is(err, errStopIngest):
	case errors.Is(err, pipeline.ErrIdleTimeout):
		s.idleClosed.Add(1)
	case errors.Is(err, errKickConn), errors.Is(err, transport.ErrFrameTooLarge):
		s.kicked.Add(1)
	case s.stopped():
	default:
		s.fail(fmt.Errorf("service: read report frame: %w", err))
	}
}

// runShuffler is the batch stage: a pipeline.RunBatcher copies each
// opened frame's records into BatchSize-record runs, in arrival order
// (a frame larger than a batch simply spans several), and the flush
// callback forwards each run to the worker queue tagged with the open
// epoch. Rotation requests land here — between frames, never inside
// one — so every frame and every batch belongs to exactly one epoch.
// The partial final batch is flushed when the intake closes (graceful
// drain).
func (s *Service) runShuffler() {
	defer close(s.shufflerDone)
	defer close(s.batches)
	size := s.codec.Size()
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
		Size:       s.cfg.BatchSize,
		RecordSize: size,
		Free:       s.runs,
		Flush: func(run []byte) {
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
			cur.pending.Add(1)
			select {
			case s.batches <- epochBatch{ep: cur, run: run}:
				s.forwarded.Add(1)
				cur.batches.Add(1)
				s.cfg.Meter.Send(PartyShuffler, PartyServer, len(run))
			case <-s.stop:
				cur.pending.Done()
			}
		},
	}
	accept := func(b frameBlock) {
		// Every exit below is done with the plaintext: it is logged and
		// copied into the batcher's run, or it is dropped.
		defer giveBack(b.recs, b.home, s.plains)
		// What a frame asserts — and whether the budget still admits it —
		// is constant per frame, so it is decided, and logged, once here,
		// and the frame is batched whole. Dropped records move
		// out of Received into exactly one of the drop counters, so
		// Received / Late / Rejected stay disjoint and the Snapshot
		// backlog arithmetic holds.
		n := int64(len(b.recs) / size)
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
			if err := s.logFrame(uint32(cur.id), b.recs); err != nil {
				s.fail(err)
			}
		}
		batcher.Add(b.recs)
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

// logFrame write-ahead logs one frame accepted into epoch: its
// plaintext — a whole number of codec.Size() reports — is sealed once
// under the at-rest key and appended as one record, so the durable
// tier's cost per frame is one AEAD seal and one WAL append however
// many reports the frame carries. The frame arrived under a
// connection-ephemeral key recovery could never re-derive, hence the
// re-seal: the WAL never holds plaintext reports. Only the shuffler
// calls it, which is what makes the sealer's nonce counter, the scratch
// (the store's record encoder copies the payload) and the counter
// mirror safe to touch.
func (s *Service) logFrame(epoch uint32, recs []byte) error {
	s.sealBuf = s.sealer.Seal(s.sealBuf[:0], recs)
	if err := s.st.AppendSealedReport(epoch, s.sealBuf); err != nil {
		return err
	}
	s.wal.received += int64(len(recs) / s.codec.Size())
	return nil
}

// runWorker is the decode + aggregate stage: worker i folds every
// shuffled batch it receives until the shuffler closes the queue.
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
	giveBack(eb.run, s.runs)
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

// Snapshot returns the open epoch's current estimate without stopping
// ingestion: each shard aggregator is swapped for a fresh one and
// merged into the epoch root, so the snapshot is a consistent prefix
// of the epoch's stream and costs the workers only the swap, never a
// full recompute.
func (s *Service) Snapshot() Snapshot {
	e := s.cur.Load()
	est, n := e.gather()
	return Snapshot{
		Estimates:  est,
		Reports:    n,
		Received:   s.received.Load(),
		Batches:    s.forwarded.Load(),
		Epoch:      e.id,
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
		close(s.intake)
		s.shufflerPool.Wait()
		s.workerPool.Wait()
		// Every batch is folded; seal the final epoch (a no-op if an
		// exhausting Rotate already did).
		s.rotateMu.Lock()
		e := s.cur.Load()
		if s.st != nil {
			// The shuffler has exited, so the counters are final: the
			// drain seal's checkpoint covers the whole stream. The epoch
			// the checkpoint leaves "open" only ever opens if the
			// directory is recovered — and is paid for then, not now.
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
		s.drainSnap = Snapshot{
			Estimates:  all.Estimates,
			Reports:    all.Reports,
			Received:   s.received.Load(),
			Batches:    s.forwarded.Load(),
			Epoch:      e.id,
			Late:       s.late.Load(),
			Rejected:   s.rejected.Load(),
			IdleClosed: s.idleClosed.Load(),
			Kicked:     s.kicked.Load(),
		}
		s.drainErr = s.Err()
	})
	return s.drainSnap, s.drainErr
}

// Close aborts the pipeline: listeners and active connections close,
// readers, shuffler, and workers exit at the next opportunity,
// in-flight reports may be dropped. A durable service flushes and
// closes its WAL (after the shuffler exits), so Close is an orderly
// stop — for the simulated power cut, use Crash. Safe to call after
// Drain (it is then a no-op).
func (s *Service) Close() error {
	s.shutdown(false)
	return nil
}

// Crash hard-stops a durable service the way a power cut would: the
// pipeline aborts and the WAL is closed WITHOUT flushing, so records
// still buffered in-process are torn away and only what the fsync
// policy already made durable survives. The recovery tests and
// examples/durable_monitor restart the data directory with Recover
// afterwards. On an in-memory service Crash behaves like Close.
func (s *Service) Crash() {
	s.shutdown(true)
}

func (s *Service) shutdown(crash bool) {
	s.mu.Lock()
	s.draining.Store(true)
	s.mu.Unlock()
	s.closeListeners()
	s.stopOnce.Do(func() { close(s.stop) })
	s.mu.Lock()
	for conn := range s.active {
		conn.Close()
	}
	s.mu.Unlock()
	if s.st == nil {
		return
	}
	// Wait out the shuffler (it exits promptly on the stop signal) so
	// the WAL teardown below cannot interleave with its appends, then
	// serialize with any in-flight checkpoint through rotateMu.
	s.shufflerPool.Wait()
	s.rotateMu.Lock()
	defer s.rotateMu.Unlock()
	if crash {
		s.st.Abort()
		return
	}
	if err := s.st.Close(); err != nil {
		s.fail(fmt.Errorf("service: closing WAL: %w", err))
	}
}

// Err returns the first pipeline failure, if any.
func (s *Service) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.firstErr
}

func (s *Service) fail(err error) {
	s.mu.Lock()
	if s.firstErr == nil {
		s.firstErr = err
	}
	s.mu.Unlock()
}

func (s *Service) closeListeners() {
	s.mu.Lock()
	lns := s.listeners
	s.listeners = nil
	s.mu.Unlock()
	for _, ln := range lns {
		ln.Close()
	}
}

func (s *Service) stopped() bool {
	select {
	case <-s.stop:
		return true
	default:
		return false
	}
}
