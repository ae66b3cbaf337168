package cluster

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"shuffledp/internal/ahe"
	"shuffledp/internal/budget"
	"shuffledp/internal/ldp"
	"shuffledp/internal/oblivious"
	"shuffledp/internal/secretshare"
	"shuffledp/internal/store"
	"shuffledp/internal/transport"
)

// AnalyzerConfig parameterizes the analyzer node.
type AnalyzerConfig struct {
	// Topology names every role's address.
	Topology Topology
	// Listener optionally supplies a pre-bound listener (overriding
	// the Topology's analyzer address); the node closes it.
	Listener net.Listener
	// FO is the frequency oracle the clients report through (GRR or a
	// hashing oracle — the word-encodable PEOS set).
	FO ldp.FrequencyOracle
	// NR is the joint fake-report count per collection.
	NR int
	// Priv is the AHE key pair; only the analyzer ever holds the
	// private half.
	Priv ahe.PrivateKey
	// Ledger, when non-nil, pays one per-collection guarantee for every
	// collection id Collect runs, once per id however many attempts or
	// Collect calls the round takes; once it refuses, Collect returns an
	// error wrapping budget.ErrExhausted and the analyzer stays
	// queryable.
	Ledger *budget.Ledger
	// DataDir, when non-empty, makes the analyzer durable: each
	// collection seals by writing one checkpoint of the cumulative
	// counts it produces (fsynced, then renamed into place), so
	// RecoverAnalyzer restores a crashed analyzer bit-identically. The
	// collection's decoded words never reach the disk; its WAL segment
	// stays header-only.
	DataDir string
	// CollectTimeout bounds each phase of a Collect: the wait for all
	// shufflers to be connected and each vector read. 0 means no bound.
	CollectTimeout time.Duration
	// Retry, when enabled (Attempts > 1), makes Collect self-healing: a
	// failed collection attempt is aborted at every shuffler and re-run
	// after a jittered exponential backoff, up to Attempts tries. The
	// privacy charge and the durable seal stay exactly-once per
	// collection regardless of the attempt count. The zero policy keeps
	// the pre-existing single-shot semantics.
	Retry RetryPolicy

	// Test seam (export_test.go): a shorter hello bound. Zero means
	// defaultHelloTimeout.
	helloTimeout time.Duration
}

func (cfg *AnalyzerConfig) validate() error {
	if err := cfg.Topology.validate(); err != nil {
		return err
	}
	if cfg.FO == nil {
		return errors.New("cluster: analyzer needs a frequency oracle")
	}
	if cfg.NR < 0 {
		return errors.New("cluster: negative fake-report count")
	}
	if cfg.Priv == nil {
		return errors.New("cluster: analyzer needs the AHE private key")
	}
	return requireWordPlaintext(cfg.Priv)
}

// Collection is one sealed collection round's outcome.
type Collection struct {
	// Collection is the round's id, starting at 0.
	Collection int
	// Reports is the round's user-report count n.
	Reports int
	// Fakes is the round's joint fake-report count.
	Fakes int
	// Estimates is the round's own calibrated estimate (fake mass
	// subtracted) — bit-identical to protocol.PEOS.Run over the same
	// reports and fakes.
	Estimates []float64
	// Cumulative is the all-collections estimate after this round.
	Cumulative []float64
	// Attempts is how many attempts the round took (1 = first try; more
	// only when AnalyzerConfig.Retry re-ran the round after a fault).
	Attempts int
}

// Analyzer is the running analyzer node. Create with NewAnalyzer (or
// RecoverAnalyzer over a durable directory), drive rounds with
// Collect, query with Estimates/Totals, and stop with Close (orderly)
// or Crash (simulated power cut).
type Analyzer struct {
	cfg AnalyzerConfig
	enc *ldp.WordEncoder
	sup ldp.Support // calibrates per-collection and cumulative counts alike
	mod secretshare.Modulus
	ln  net.Listener
	st  *store.Store

	mu sync.Mutex
	// peers holds the shufflers' control links by index. A reconnecting
	// shuffler replaces its slot.
	peers    []*link
	pending  map[*link]struct{} // accepted, hello not yet read
	connMore chan struct{}
	closed   bool

	stateMu     sync.Mutex
	counts      []int
	reals       int
	fakes       int
	collections int    // sealed rounds
	attempts    uint32 // monotonic attempt counter; never reused, so a generation never repeats
}

// NewAnalyzer validates cfg, binds the listener, creates the durable
// store when configured (the directory must hold no prior state —
// recovering is RecoverAnalyzer's job, never an accident), and starts
// accepting shuffler connections.
func NewAnalyzer(cfg AnalyzerConfig) (*Analyzer, error) {
	a, err := prepareAnalyzer(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.DataDir != "" {
		st, err := store.Create(cfg.DataDir, a.storeMeta(), store.SyncBatch)
		if err != nil {
			a.ln.Close()
			if errors.Is(err, store.ErrExists) {
				return nil, fmt.Errorf("cluster: %w (restart it with RecoverAnalyzer instead of NewAnalyzer)", err)
			}
			return nil, err
		}
		a.st = st
	}
	go a.acceptLoop()
	return a, nil
}

// prepareAnalyzer builds the shell shared by NewAnalyzer and
// RecoverAnalyzer: validation, listener, zeroed cumulative state, no
// store and no goroutines.
func prepareAnalyzer(cfg AnalyzerConfig) (*Analyzer, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	enc, err := ldp.NewWordEncoder(cfg.FO)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	sup, _ := ldp.SupportOf(cfg.FO)
	ln, err := listenOrUse(cfg.Listener, cfg.Topology.Analyzers[0])
	if err != nil {
		return nil, err
	}
	a := &Analyzer{
		cfg:      cfg,
		enc:      enc,
		sup:      sup,
		mod:      secretshare.NewModulus(64),
		ln:       ln,
		peers:    make([]*link, cfg.Topology.R()),
		pending:  make(map[*link]struct{}),
		connMore: make(chan struct{}, 1),
		counts:   make([]int, cfg.FO.Domain()),
	}
	return a, nil
}

func (a *Analyzer) storeMeta() store.Meta {
	return store.Meta{Oracle: a.cfg.FO.Name(), Domain: a.cfg.FO.Domain()}
}

// Addr returns the bound listen address.
func (a *Analyzer) Addr() string { return a.ln.Addr().String() }

// acceptLoop files inbound connections in the peer table by their
// hello: a shuffler hello claims that shuffler's slot, replacing its
// old link; any other hello is refused.
func (a *Analyzer) acceptLoop() {
	for {
		conn, err := a.ln.Accept()
		if err != nil {
			return
		}
		go a.handshake(newLink(conn, a.cfg.CollectTimeout))
	}
}

func (a *Analyzer) handshake(l *link) {
	// Track the connection before the hello (so Close can unblock this
	// read) and bound the hello wait itself.
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		l.close()
		return
	}
	a.pending[l] = struct{}{}
	a.mu.Unlock()
	p := -1
	tag, payload, err := l.recv(controlFrameLimit, cmp.Or(a.cfg.helloTimeout, defaultHelloTimeout))
	if err == nil && tag == tagShufflerHello {
		p, err = parseHelloIndex(payload, a.cfg.Topology.R())
	}
	a.mu.Lock()
	delete(a.pending, l)
	if p < 0 || err != nil || a.closed {
		a.mu.Unlock()
		l.close()
		return
	}
	if old := a.peers[p]; old != nil {
		old.close()
	}
	a.peers[p] = l
	a.mu.Unlock()
	select {
	case a.connMore <- struct{}{}:
	default:
	}
}

// awaitPeers blocks until every shuffler's slot of the peer table
// holds a link and returns a snapshot of it.
func (a *Analyzer) awaitPeers() ([]*link, error) {
	var peers []*link
	missing := 0
	err := await(func() (bool, error) {
		a.mu.Lock()
		defer a.mu.Unlock()
		if a.closed {
			return false, errNodeClosed
		}
		peers = append(peers[:0], a.peers...)
		missing = 0
		for _, l := range peers {
			if l == nil {
				missing++
			}
		}
		return missing == 0, nil
	}, a.connMore, nil, a.cfg.CollectTimeout)
	if errors.Is(err, errAwaitTimeout) {
		err = fmt.Errorf("cluster: %d shuffler link(s) never connected", missing)
	}
	if err != nil {
		return nil, err
	}
	return peers, nil
}

// Collect drives one collection round over n user reports: broadcast
// the seal, await every shuffler's post-shuffle vector, reconstruct
// (decrypting the ciphertext column in parallel), decode, and fold the
// round's support counts into the cumulative state — durably, when
// configured. The caller must have flushed the clients' shares for the
// round before sealing it; the shufflers wait out in-flight frames,
// but a share that was never sent fails the round at their
// SealTimeout.
//
// With Retry enabled, a failed attempt (a shuffler died, reset, timed
// out) is aborted everywhere and the round re-runs under a fresh
// generation after a jittered backoff: the dead link is dropped so its
// shuffler can re-dial, the survivors get an abort frame, and buffered
// client shares plus cached fake shares make the re-run bit-identical
// to a round that never failed. The privacy ledger pays for the
// collection id exactly once (on the first attempt that reaches the
// seal broadcast), and the durable seal happens only for the attempt
// that succeeds.
//
// A Collect error means the round is lost across all attempts: nothing
// was aggregated or charged durably (the in-memory payment, the bound
// on what the seal broadcasts disclosed, stands — and a later Collect
// of the same collection id does not pay for it again), and the clean
// way out is to Close the analyzer — the control-link EOF unblocks
// every surviving shuffler's Run — and start a fresh cluster, a
// durable analyzer recovering its sealed history. The kill-one-
// shuffler smoke test (examples/peos_cluster -kill) exercises exactly
// this path with retry disabled.
func (a *Analyzer) Collect(n int) (Collection, error) {
	if n <= 0 {
		return Collection{}, errors.New("cluster: Collect needs n > 0")
	}
	if a.isClosed() {
		return Collection{}, errors.New("cluster: analyzer closed")
	}
	policy := a.cfg.Retry.withDefaults()
	a.stateMu.Lock()
	collection := uint32(a.collections)
	a.stateMu.Unlock()
	var lastErr error
	for try := 0; try < policy.Attempts; try++ {
		if try > 0 {
			time.Sleep(policy.backoff(try - 1))
			if a.isClosed() {
				return Collection{}, errors.New("cluster: analyzer closed")
			}
		}
		peers, err := a.awaitPeers()
		if err != nil {
			if a.isClosed() {
				return Collection{}, err
			}
			lastErr = err
			continue
		}
		// Pay only once every shuffler is reachable. Paying through the
		// collection id costs nothing once it is paid, so the round
		// pays once however many attempts it takes: the payment bounds
		// disclosure, and every attempt seals the same report multiset
		// (the payment still precedes the first seal broadcast, the
		// first actual disclosure).
		if a.cfg.Ledger != nil {
			if err := a.cfg.Ledger.PayThrough(int(collection)); err != nil {
				return Collection{}, fmt.Errorf("cluster: charging collection %d: %w", collection, err)
			}
		}
		g := gen{col: collection, att: a.nextAttempt()}
		words, bad, err := a.attemptRound(peers, g, n)
		if err != nil {
			lastErr = fmt.Errorf("cluster: collection %d attempt %d: %w", g.col, g.att, err)
			// Abort the attempt at every shuffler so its goroutines cancel
			// promptly; the one whose I/O failed is dropped instead and
			// redials its control link.
			a.broadcast(peers, bad, tagAbort, prefixed(g, nil))
			continue
		}
		col, err := a.seal(collection, n, words)
		if err != nil {
			// A durable-store failure is not retryable: the round's
			// exchange succeeded, the disk did not.
			return Collection{}, err
		}
		col.Attempts = try + 1
		// The durable seal above is the round's one commit point; the done
		// frame only lets shufflers prune the collection's buffered
		// shares, cached fakes and parked mesh connections. Best-effort:
		// a shuffler that misses it prunes on the next seal instead.
		a.broadcast(peers, -1, tagDone, donePayload(collection))
		return col, nil
	}
	return Collection{}, fmt.Errorf("cluster: collection %d failed after %d attempt(s): %w", collection, policy.Attempts, lastErr)
}

// nextAttempt allocates a generation's attempt number. Monotonic
// across the analyzer's lifetime — never per collection — so aborted
// attempts can never collide with their successors.
func (a *Analyzer) nextAttempt() uint32 {
	a.stateMu.Lock()
	defer a.stateMu.Unlock()
	att := a.attempts
	a.attempts++
	return att
}

// attemptRound runs one generation of a collection: the seal broadcast,
// then every shuffler's post-shuffle vector, revealed into the round's
// word vector. On failure it reports which shuffler's link had the I/O
// fault (-1 for protocol-level failures where every link is still
// healthy), so the retry path drops exactly the dead link.
func (a *Analyzer) attemptRound(peers []*link, g gen, n int) ([]uint64, int, error) {
	seal := sealPayload(g, n)
	for j, l := range peers {
		if err := l.send(tagSeal, seal); err != nil {
			return nil, j, fmt.Errorf("sealing with shuffler %d: %w", j, err)
		}
	}
	return a.awaitVectors(peers, g, n+a.cfg.NR)
}

// awaitVectors reads one vector frame of total words per shuffler,
// reconstructs the share sum, and decrypts the encrypted column in
// parallel. Frames stamped with an older generation are
// leftovers of aborted attempts (a late vector or its fail notice) and
// are skipped; the read deadline still bounds how long stale traffic
// can stall the round.
func (a *Analyzer) awaitVectors(shufflers []*link, g gen, total int) ([]uint64, int, error) {
	r := a.cfg.Topology.R()
	limit := vectorFrameLimit(a.cfg.Priv, total)
	st := &oblivious.State{Plain: make([][]uint64, r), EncHolder: -1}
	for j, l := range shufflers {
	read:
		for {
			tag, payload, err := l.recv(limit, a.cfg.CollectTimeout)
			if err != nil {
				return nil, j, fmt.Errorf("reading shuffler %d vector: %w", j, err)
			}
			fg, body, err := splitPrefixed(payload)
			if err != nil {
				return nil, j, err
			}
			if fg != g {
				continue
			}
			switch tag {
			case tagVector:
				words, err := transport.DecodeUint64s(body)
				if err != nil {
					return nil, j, err
				}
				if len(words) != total {
					return nil, j, fmt.Errorf("%w: shuffler %d vector has %d words, want %d", errBadFrame, j, len(words), total)
				}
				st.Plain[j] = words
				break read
			case tagEncVector:
				if st.EncHolder >= 0 {
					return nil, -1, fmt.Errorf("%w: shufflers %d and %d both sent ciphertext vectors", errBadFrame, st.EncHolder, j)
				}
				cts, err := decodeCiphertexts(ahe.PublicKey(a.cfg.Priv), body)
				if err != nil {
					return nil, j, err
				}
				if len(cts) != total {
					return nil, j, fmt.Errorf("%w: shuffler %d ciphertext vector has %d elements, want %d", errBadFrame, j, len(cts), total)
				}
				st.Enc = cts
				st.EncHolder = j
				break read
			case tagFail:
				return nil, -1, fmt.Errorf("shuffler %d failed: %s", j, body)
			default:
				return nil, j, fmt.Errorf("%w: shuffler %d sent tag %d, want a vector", errBadFrame, j, tag)
			}
		}
	}
	if st.EncHolder < 0 {
		return nil, -1, errors.New("cluster: no shuffler delivered the encrypted column")
	}
	words, err := oblivious.RevealParallel(st, a.mod, a.cfg.Priv, 0)
	return words, -1, err
}

// broadcast sends one frame to every shuffler but bad (-1 = none).
// Shuffler bad's link, and any link that cannot take the frame, is
// dead: it is closed and its slot cleared (if still current), so
// awaitPeers waits for the shuffler to redial.
func (a *Analyzer) broadcast(peers []*link, bad int, tag uint32, payload []byte) {
	for p, l := range peers {
		if p != bad && l.send(tag, payload) == nil {
			continue
		}
		a.mu.Lock()
		if a.peers[p] == l {
			a.peers[p] = nil
		}
		a.mu.Unlock()
		l.close()
	}
}

func (a *Analyzer) isClosed() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.closed
}

// seal makes one collection's revealed words (n user reports + NR
// fakes) state: decode them, and add their support counts to the
// cumulative counts. On a durable node it first writes the checkpoint
// of the state the collection produces; that rename is the
// collection's one commit point, and only once it returns is the state
// installed in memory, so a failed write leaves the analyzer as it
// was.
func (a *Analyzer) seal(collection uint32, n int, words []uint64) (Collection, error) {
	reports := make([]ldp.Report, len(words))
	for i, w := range words {
		reports[i] = a.enc.Decode(w)
	}
	colCounts := ldp.SupportCounts(a.cfg.FO, reports)
	if a.st != nil {
		if err := a.writeCheckpoint(collection, n, colCounts); err != nil {
			return Collection{}, err
		}
	}
	a.stateMu.Lock()
	for v, c := range colCounts {
		a.counts[v] += c
	}
	a.reals += n
	a.fakes += a.cfg.NR
	a.collections = int(collection) + 1
	a.stateMu.Unlock()
	return Collection{
		Collection: int(collection),
		Reports:    n,
		Fakes:      a.cfg.NR,
		Estimates:  a.sup.Calibrate(colCounts, n, a.cfg.NR),
		Cumulative: a.Estimates(),
	}, nil
}

// Estimates returns the cumulative calibrated estimate over every
// sealed collection (all zeros before the first).
func (a *Analyzer) Estimates() []float64 {
	a.stateMu.Lock()
	defer a.stateMu.Unlock()
	return a.sup.Calibrate(a.counts, a.reals, a.fakes)
}

// Totals returns the cumulative user-report and fake-report counts.
func (a *Analyzer) Totals() (reports, fakes int) {
	a.stateMu.Lock()
	defer a.stateMu.Unlock()
	return a.reals, a.fakes
}

// Collections returns how many collection rounds have sealed.
func (a *Analyzer) Collections() int {
	a.stateMu.Lock()
	defer a.stateMu.Unlock()
	return a.collections
}

// Close shuts the node down in an orderly way: the listener and every
// shuffler link drop (shufflers read EOF and exit their Run cleanly),
// and the durable store is flushed and closed.
func (a *Analyzer) Close() error {
	a.shutdown(false)
	return nil
}

func (a *Analyzer) shutdown(crash bool) {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return
	}
	a.closed = true
	links := append([]*link(nil), a.peers...)
	for l := range a.pending {
		links = append(links, l)
	}
	a.mu.Unlock()
	a.ln.Close()
	for _, l := range links {
		if l != nil {
			l.close()
		}
	}
	if a.st == nil {
		return
	}
	if crash {
		a.st.Abort()
		return
	}
	a.st.Close()
}

// --- durable state blob ---

// stateMagic/stateVersion frame the cumulative-counts blob stored in
// the checkpoint's aggregate slot. There is one version; a blob that
// names any other is refused by number.
const (
	stateMagic   = "PEOA"
	stateVersion = 1
)

// marshalState encodes (NR, reals, fakes, collections, counts), the
// counts being the cumulative ones plus colCounts — a collection's
// support counts not yet installed — so a seal can write the state it
// produces without changing the state it reads. NR is recorded so a
// recovery with a mismatched fake-report count is refused (it would
// silently mis-calibrate every estimate) instead of loaded. Callers
// hold stateMu.
func (a *Analyzer) marshalState(collections, reals, fakes int, colCounts []int) []byte {
	buf := append([]byte(nil), stateMagic...)
	buf = append(buf, stateVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(a.cfg.NR))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(reals))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(fakes))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(collections))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(a.counts)))
	for v, c := range a.counts {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(c+colCounts[v]))
	}
	return buf
}

func (a *Analyzer) unmarshalState(data []byte) error {
	const hdr = 4 + 1 + 4 + 8 + 8 + 8 + 4
	if len(data) < hdr || string(data[:4]) != stateMagic {
		return errors.New("cluster: malformed analyzer state blob")
	}
	if version := data[4]; version != stateVersion {
		return fmt.Errorf("cluster: analyzer state version %d (this build reads %d)", version, stateVersion)
	}
	nr := int(binary.LittleEndian.Uint32(data[5:]))
	if nr != a.cfg.NR {
		return fmt.Errorf("cluster: durable state was collected with NR=%d fakes per round, config says %d", nr, a.cfg.NR)
	}
	reals := binary.LittleEndian.Uint64(data[9:])
	fakes := binary.LittleEndian.Uint64(data[17:])
	collections := binary.LittleEndian.Uint64(data[25:])
	d := int(binary.LittleEndian.Uint32(data[33:]))
	if d != a.cfg.FO.Domain() {
		return fmt.Errorf("cluster: state blob covers domain %d, oracle has %d", d, a.cfg.FO.Domain())
	}
	if len(data) != hdr+8*d {
		return errors.New("cluster: truncated analyzer state blob")
	}
	a.reals = int(reals)
	a.fakes = int(fakes)
	a.collections = int(collections)
	for v := range a.counts {
		a.counts[v] = int(binary.LittleEndian.Uint64(data[hdr+8*v:]))
	}
	return nil
}

// writeCheckpoint makes durable the cumulative state sealing
// collection — n user reports, NR fakes, support counts colCounts —
// produces: the collection's commit point. It installs nothing. Only
// OpenEpoch (the next collection id, which also prunes the segments of
// earlier ones) and the state blob are meaningful for the analyzer;
// the service-specific slots stay zero.
func (a *Analyzer) writeCheckpoint(collection uint32, n int, colCounts []int) error {
	a.stateMu.Lock()
	cp := &store.Checkpoint{
		OpenEpoch: int(collection) + 1,
		AllTime:   a.marshalState(int(collection)+1, a.reals+n, a.fakes+a.cfg.NR, colCounts),
	}
	a.stateMu.Unlock()
	return a.st.WriteCheckpoint(cp)
}

// RecoverAnalyzer rebuilds a durable analyzer from cfg.DataDir — its
// newest checkpoint — to a state bit-identical to an uninterrupted run
// over the same sealed collections, without re-spending privacy
// budget. cfg must carry the same oracle, NR, and key material as the
// original run (the oracle, domain, and NR are validated against the
// checkpoint; the AHE key must be the persisted one — see
// ahe.MarshalDGKPrivateKey — or future ciphertext columns will not
// decrypt). A collection whose checkpoint never became durable is
// gone: its Collect never returned success. The analyzer writes no WAL
// record, so a directory holding any record past its checkpoint (an
// older build logged each collection's words and a rotation marker
// before checkpointing) is refused by name, not replayed, and its
// records are left as they are.
func RecoverAnalyzer(cfg AnalyzerConfig) (*Analyzer, error) {
	if cfg.DataDir == "" {
		return nil, errors.New("cluster: RecoverAnalyzer needs AnalyzerConfig.DataDir")
	}
	a, err := prepareAnalyzer(cfg)
	if err != nil {
		return nil, err
	}
	st, rec, err := store.Open(cfg.DataDir, a.storeMeta(), store.SyncBatch)
	if err != nil {
		a.ln.Close()
		return nil, err
	}
	a.st = st
	if err := a.restore(rec); err != nil {
		st.Close()
		a.ln.Close()
		return nil, err
	}
	go a.acceptLoop()
	return a, nil
}

// restore applies the checkpoint and pays the ledger once through the
// last sealed collection: the payment is worked out from what was
// sealed, never by replaying charges. A sealed count the ledger cannot
// pay for means it runs under other parameters than the ones the
// directory was written under. A WAL record past the checkpoint is
// refused before anything is applied or paid. It runs before the
// accept loop exists, so it mutates state freely.
func (a *Analyzer) restore(rec *store.Recovered) error {
	if len(rec.Tail) > 0 {
		return fmt.Errorf("cluster: %s holds %d WAL record(s) past its checkpoint; this analyzer writes none (older builds logged a collection's words and rotation marker before checkpointing it): recover the directory with the build that wrote it",
			a.cfg.DataDir, len(rec.Tail))
	}
	if cp := rec.Checkpoint; cp != nil {
		if err := a.unmarshalState(cp.AllTime); err != nil {
			return err
		}
	}
	if a.cfg.Ledger != nil {
		if err := a.cfg.Ledger.PayThrough(a.collections - 1); err != nil {
			return fmt.Errorf("cluster: restoring ledger: %d sealed collections exceed the total budget (wrong ledger parameters?): %w", a.collections, err)
		}
	}
	return nil
}
