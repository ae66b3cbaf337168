// Package service is the concurrent streaming face of the basic
// shuffle model (Figure 1): a long-running ingestion tier that accepts
// framed, end-to-end encrypted reports from many client connections at
// once, batches them, and folds the decrypted reports into mergeable
// per-worker aggregators so the running histogram is available at any
// point mid-stream.
//
// Pipeline stages, one file each, with one bounded queue between the
// readers and the workers (backpressure propagates from a slow fold
// back to the clients' writes):
//
//	read.go + batch.go                      --batches-->  fold.go
//	(one reader per conn: session open,     (word runs)   (one fold
//	 unpack; under batchMu, log the frame                  per run)
//	 and copy its words into runs; then
//	 dispatch each run cut, folding it
//	 when the queue is full)
//
// and epoch.go seals and releases what was folded (Snapshot, Rotate,
// History, EstimateWindow, Drain). This file holds the wiring and the
// state the stages share.
//
// The unit the batch stage takes is the opened session frame, not the
// report: a reader authenticates a frame into its own buffers, unpacks
// its reports into 8-byte words (Codec's one canonical parse; a frame
// that fails it kicks the connection), and accepts it under batchMu in
// one section: the packed plaintext is logged when the service is
// durable, and the words are copied into the open batch — one flat run
// of words, in arrival order. Each run the frame completed then goes to
// a worker through the queue or, when the queue is full, is folded by
// the reader into a shard no worker holds; whoever folds a run gives it
// back to the run free list. A per-report hand-off cost more than
// everything else the tier does to a report (EXPERIMENTS.md, "Spend
// the profile"). A run is folded whole through Codec.Fold, the fold WAL
// replay uses too: word reports reach the aggregator's counting kernel
// as words, with no Report in between.
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
// arrival order — so the batch stage permutes nothing: it cuts
// runs, the fold's unit. The ε the ledger charges holds
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
	// session frame at a time and the cut lands between frames, so
	// epochs run long by up to one frame plus the frames accepted while
	// the rotation was on its way. 0 means epochs rotate only through
	// explicit Rotate calls.
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
	// Batches is how many batches have been cut for the fold (across
	// all epochs).
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
	// frame past DefaultMaxFrame, a malformed session hello, a
	// session frame that failed authentication or arrived out of
	// sequence, or one whose plaintext is not a canonical packing of
	// valid reports (Codec). Reports the connection delivered before violating
	// were accepted normally; like IdleClosed the counter is
	// in-memory only.
	Kicked int64
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

	// batches is the worker queue: word runs, readers -> fold workers.
	// Readers are its only senders, and Drain closes it once every
	// reader has exited.
	batches chan epochBatch

	// runs is the free list of word runs: the batcher takes one, whoever
	// folds it gives it back. It is capped at the runs in flight past
	// the batcher that no reader holds (DESIGN.md §6) — the queue's,
	// one in each worker's hand and the one the batcher is filling —
	// and starts full; a run given back to a full list is dropped.
	runs chan []uint64

	// batchMu is the batch stage: the reader that opened a frame holds
	// it to route, log and batch the frame (accept), and Rotate and
	// Drain hold it to cut the stream. It guards batcher, cut, the
	// sealer and sealBuf, wal, and the swap of cur.
	batchMu sync.Mutex
	batcher pipeline.RunBatcher
	// cut holds the runs the batcher flushed until the goroutine
	// holding batchMu takes them (takeCut).
	cut []epochBatch

	stop     chan struct{}
	stopOnce sync.Once
	draining atomic.Bool

	conns      sync.WaitGroup // active connection readers
	workerPool pipeline.Pool  // decode + aggregate stage workers

	// sealer re-encrypts accepted frames for the WAL (their wire
	// framing is under a connection-ephemeral key recovery could never
	// re-derive), sealBuf is its output scratch. Nil for an in-memory
	// service.
	sealer  *ecies.StorageSealer
	sealBuf []byte

	mu        sync.Mutex
	listeners []net.Listener
	active    map[net.Conn]struct{}
	firstErr  error

	// cur is the open epoch (stays on the last epoch once exhausted).
	cur       atomic.Pointer[epochState]
	exhausted atomic.Bool

	// rotateMu serializes Rotate and Drain's final seal; drained,
	// under it, says Drain has cut the stream for the last time.
	rotateMu   sync.Mutex
	drained    bool
	rotateHint chan struct{}
	rotatorWG  sync.WaitGroup
	drainStart chan struct{}

	// history is every sealed epoch, oldest first: the only record of
	// what the service sealed. Drain's all-time estimate is its merge.
	histMu  sync.Mutex
	history []*epochState

	// st is the durability layer, nil for an in-memory service. wal is
	// the durable-counter mirror, under batchMu (Recover seeds it
	// before any reader starts).
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
// durable, pays the ledger for epoch 0, starts the fold workers, and
// returns the running (but not yet listening) service. A
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
// channels and, for a durable service, the at-rest sealer, but no
// epoch, no ledger charge, no store, and no goroutines. New and Recover share it and differ only in how they
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
		cfg:        cfg,
		codec:      codec,
		workers:    workers,
		batches:    make(chan epochBatch, queuedBatchesPerWorker*workers),
		runs:       make(chan []uint64, (queuedBatchesPerWorker+1)*workers+1),
		stop:       make(chan struct{}),
		rotateHint: make(chan struct{}, 1),
		drainStart: make(chan struct{}),
	}
	// The free list starts full, one slab cut into runs: the first time
	// the queue fills and a reader folds, mid-stream, the batcher takes
	// runs from it instead of allocating them.
	slab := make([]uint64, cap(s.runs)*cfg.BatchSize)
	for i := range cap(s.runs) {
		s.runs <- slab[i*cfg.BatchSize : i*cfg.BatchSize : (i+1)*cfg.BatchSize]
	}
	s.batcher = pipeline.RunBatcher{Size: cfg.BatchSize, Free: s.runs, Flush: s.flushRun}
	if cfg.DataDir != "" {
		if s.sealer, err = ecies.NewStorageSealer(cfg.Key); err != nil {
			return nil, err
		}
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
// outlive the wait and send on the closed worker queue).
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

// Close aborts the pipeline: listeners and active connections close,
// readers and workers exit at the next opportunity, in-flight reports
// may be dropped. A durable service flushes and closes its WAL (after
// every reader exits), so Close is an orderly
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
	// Wait out the readers (each exits promptly on the stop signal) so
	// the WAL teardown below cannot interleave with their appends and no
	// run reaches the queue after dropQueued, then serialize with any
	// in-flight rotation or checkpoint through rotateMu.
	s.conns.Wait()
	s.dropQueued()
	if s.st == nil {
		return
	}
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
