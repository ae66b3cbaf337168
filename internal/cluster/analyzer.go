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
	// the Topology address of this shard); the node closes it.
	Listener net.Listener
	// FO is the frequency oracle the clients report through (GRR or a
	// hashing oracle — the word-encodable PEOS set).
	FO ldp.FrequencyOracle
	// NR is the joint fake-report count per collection.
	NR int
	// Priv is the AHE key pair; only the analyzer ever holds the
	// private half.
	Priv ahe.PrivateKey
	// Ledger, when non-nil, is charged one per-collection guarantee at
	// every Collect; once it refuses, Collect returns an error wrapping
	// budget.ErrExhausted and the analyzer stays queryable. Coordinator
	// only: a shard charges nothing.
	Ledger *budget.Ledger
	// DataDir, when non-empty, makes the analyzer durable: each sealed
	// collection's decoded words are write-ahead logged and the
	// cumulative counts checkpointed, so RecoverAnalyzer restores a
	// crashed analyzer bit-identically. (The log holds post-shuffle
	// DECODED reports — exactly what the analyzer role legitimately
	// sees; it never holds anything linkable to a client.) Coordinator
	// only: a shard keeps no state a restart needs.
	DataDir string
	// Sync is the WAL fsync policy (store.SyncBatch when zero);
	// rotation markers and checkpoints are always fsynced.
	Sync store.SyncPolicy
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
	// Shard is this node's analyzer-shard index in [0, Topology.A()).
	// Shard 0 — the default, and the only shard of a single-analyzer
	// topology — is the coordinator: it drives Collect, owns the
	// durable history, and serves estimates. Shards >= 1 are stateless
	// reveal workers (DESIGN.md §13): they decrypt their even cut of
	// each round's post-shuffle vector and hand the words to the
	// coordinator. A crashed shard is replaced by a blank one at the
	// same address.
	Shard int
	// Dial, when non-nil, replaces net.DialTimeout for a shard node's
	// coordinator link — the chaos-injection hook (faultnet fits).
	Dial DialFunc

	// Test seams (export_test.go): a shorter hello bound and a shorter
	// dial budget for a shard's coordinator link. Zero means
	// defaultHelloTimeout and defaultDialTimeout.
	helloTimeout time.Duration
	dialTimeout  time.Duration
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
	if err := requireWordPlaintext(cfg.Priv); err != nil {
		return err
	}
	if cfg.Shard < 0 || cfg.Shard >= cfg.Topology.A() {
		return fmt.Errorf("cluster: analyzer shard %d out of range [0, %d)", cfg.Shard, cfg.Topology.A())
	}
	if cfg.Shard > 0 && (cfg.DataDir != "" || cfg.Ledger != nil) {
		return fmt.Errorf("cluster: analyzer shard %d is a stateless reveal worker: DataDir and Ledger belong to the coordinator (shard 0)", cfg.Shard)
	}
	return nil
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
	// peers is the node's one link table. Slots [0, R) are the shufflers
	// by index — their control links on the coordinator, their chunk
	// data links on a shard; the coordinator of a sharded tier appends
	// shard s at slot R+s-1. A reconnecting peer replaces its slot.
	peers    []*link
	pending  map[*link]struct{} // accepted, hello not yet read
	connMore chan struct{}
	closed   bool

	stateMu     sync.Mutex
	counts      []int
	reals       int
	fakes       int
	collections int    // sealed rounds (coordinator)
	attempts    uint32 // monotonic attempt counter; never reused, so a generation never repeats

	// Shard-node state (cfg.Shard > 0; shard.go): the follower — the
	// coordinator link, the window attempt in flight and the done
	// watermark — and each shuffler's newest chunk frame, all under
	// stateMu.
	f         *follower
	chunks    []chunk // by shuffler index
	chunkMore chan struct{}
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
		st, err := store.Create(cfg.DataDir, a.storeMeta(), cfg.Sync)
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
	if a.cfg.Shard > 0 {
		go a.shardRun()
	}
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
	ln, err := listenOrUse(cfg.Listener, cfg.Topology.Analyzers[cfg.Shard])
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
	if cfg.Shard == 0 {
		a.peers = append(a.peers, make([]*link, cfg.Topology.A()-1)...)
	} else {
		a.prepareShard()
	}
	return a, nil
}

func (a *Analyzer) storeMeta() store.Meta {
	return store.Meta{Oracle: a.cfg.FO.Name(), Domain: a.cfg.FO.Domain()}
}

// Addr returns the bound listen address.
func (a *Analyzer) Addr() string { return a.ln.Addr().String() }

// peerName names a peer-table slot in errors.
func (a *Analyzer) peerName(p int) string {
	if r := a.cfg.Topology.R(); p >= r {
		return fmt.Sprintf("analyzer shard %d", p-r+1)
	}
	return fmt.Sprintf("shuffler %d", p)
}

// acceptLoop files inbound connections in the peer table by their
// hello: a shuffler hello claims that shuffler's slot on every node, a
// shard hello — coordinator only, refused from a peer configured for a
// different analyzer count — the shard's. A reconnecting peer replaces
// its old link. On a shard node the shuffler links are chunk DATA
// links, each drained by its own reader into the chunk slots.
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
	switch {
	case err != nil:
	case tag == tagShufflerHello:
		p, err = parseHelloIndex(payload, a.cfg.Topology.R())
	case tag == tagShardHello && a.cfg.Shard == 0:
		if p, err = parseShardHello(payload, a.cfg.Topology.A()); err == nil {
			p += a.cfg.Topology.R() - 1
		}
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
	if a.cfg.Shard > 0 {
		go a.readChunks(p, l)
	}
	select {
	case a.connMore <- struct{}{}:
	default:
	}
}

// awaitPeers blocks until every slot of the peer table holds a link —
// every shuffler and, on a sharded coordinator, every shard — and
// returns a snapshot of it.
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
		err = fmt.Errorf("cluster: %d cluster link(s) never connected", missing)
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
// to a round that never failed. The privacy ledger is charged exactly
// once per collection (on the first attempt that reaches the seal
// broadcast), and the WAL seal happens only for the attempt that
// succeeds.
//
// A Collect error means the round is lost across all attempts: nothing
// was aggregated or charged durably (the in-memory ledger charge, the
// bound on what the seal broadcasts disclosed, stands), and the clean
// way out is to Close the analyzer — the control-link EOF unblocks
// every surviving shuffler's Run — and start a fresh cluster, a
// durable analyzer recovering its sealed history. The kill-one-
// shuffler smoke test (examples/peos_cluster -kill) exercises exactly
// this path with retry disabled.
func (a *Analyzer) Collect(n int) (Collection, error) {
	if n <= 0 {
		return Collection{}, errors.New("cluster: Collect needs n > 0")
	}
	if a.cfg.Shard != 0 {
		return Collection{}, errShardPassive
	}
	if a.isClosed() {
		return Collection{}, errors.New("cluster: analyzer closed")
	}
	policy := a.cfg.Retry.withDefaults()
	a.stateMu.Lock()
	collection := uint32(a.collections)
	a.stateMu.Unlock()
	charged := false
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
		// Charge only once every shuffler is reachable, and only once
		// per collection no matter how many attempts it takes: the
		// charge bounds disclosure, and every attempt seals the same
		// report multiset (the charge still precedes the first seal
		// broadcast, the first actual disclosure).
		if !charged && a.cfg.Ledger != nil {
			if err := a.cfg.Ledger.Charge(); err != nil {
				return Collection{}, fmt.Errorf("cluster: charging collection %d: %w", collection, err)
			}
		}
		charged = true
		g := gen{col: collection, att: a.nextAttempt()}
		words, bad, err := a.attemptRound(peers, g, n)
		if err != nil {
			lastErr = fmt.Errorf("cluster: collection %d attempt %d: %w", g.col, g.att, err)
			a.recoverPeers(peers, g, bad)
			continue
		}
		col, err := a.seal(collection, n, words)
		if err != nil {
			// A durable-store failure is not retryable: the round's
			// exchange succeeded, the disk did not.
			return Collection{}, err
		}
		col.Attempts = try + 1
		// The durable seal above is the round's one commit point; what
		// follows only lets shufflers and shards drop what they buffer.
		a.broadcastDone(peers, collection)
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

// attemptRound runs one generation of a collection: the seal broadcast
// — one frame, to the shards first so they are armed before any chunk
// can arrive, then to the shufflers — the coordinator's own window vectors,
// then each shard's revealed words — reassembled in cut order into the
// full post-shuffle word vector, byte-identical to what a single
// analyzer reveals. On failure it reports which peer's link had the
// I/O fault (-1 for protocol-level failures where every link is still
// healthy), so the retry path drops exactly the dead link.
func (a *Analyzer) attemptRound(peers []*link, g gen, n int) ([]uint64, int, error) {
	r := a.cfg.Topology.R()
	total := n + a.cfg.NR
	analyzers := a.cfg.Topology.A()
	cuts := evenCuts(total, analyzers)
	seal := sealPayload(g, n, analyzers)
	for i := range peers {
		p := (r + i) % len(peers) // the table rotated: shards, then shufflers
		if err := peers[p].send(tagSeal, seal); err != nil {
			return nil, p, fmt.Errorf("sealing with %s: %w", a.peerName(p), err)
		}
	}
	words, bad, err := a.awaitVectors(peers[:r], g, cuts[1])
	if err != nil || analyzers == 1 {
		return words, bad, err
	}
	full := make([]uint64, total)
	copy(full, words)
	for s := 1; s < analyzers; s++ {
		ws, err := a.awaitShardWords(peers[r+s-1], s, g, cuts[s+1]-cuts[s])
		if err != nil {
			return nil, r + s - 1, err
		}
		copy(full[cuts[s]:cuts[s+1]], ws)
	}
	return full, -1, nil
}

// awaitVectors reads one vector frame per shuffler — each carrying
// this node's cut window of the post-shuffle vector (the whole vector
// on a single analyzer) — reconstructs the share sum, and decrypts the
// encrypted column. Frames stamped with an older generation are
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

// recoverPeers cleans up after a failed attempt: the peer whose I/O
// failed is dropped (the shuffler — or shard — redials its control
// link), the others get an abort frame so their attempt goroutines
// cancel promptly; a link that cannot even take the abort is dropped
// too.
func (a *Analyzer) recoverPeers(peers []*link, g gen, bad int) {
	for p, l := range peers {
		if p == bad || l.send(tagAbort, prefixed(g, nil)) != nil {
			a.drop(p, l)
		}
	}
}

// broadcastDone tells every shuffler and shard the collection sealed
// durably, so shufflers can prune its buffered shares, cached fakes,
// and parked mesh connections, and shards its chunk frames.
// Best-effort: a node that misses it prunes on the next seal instead.
func (a *Analyzer) broadcastDone(peers []*link, collection uint32) {
	for p, l := range peers {
		if l.send(tagDone, donePayload(collection)) != nil {
			a.drop(p, l)
		}
	}
}

// drop closes a dead peer link and clears its slot (if still current)
// so awaitPeers waits for the reconnect.
func (a *Analyzer) drop(p int, l *link) {
	a.mu.Lock()
	if a.peers[p] == l {
		a.peers[p] = nil
	}
	a.mu.Unlock()
	l.close()
}

func (a *Analyzer) isClosed() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.closed
}

// seal makes one collection's decoded words durable (WAL + rotation
// marker + checkpoint when configured) and folds them into the
// cumulative counts.
func (a *Analyzer) seal(collection uint32, n int, words []uint64) (Collection, error) {
	if a.st != nil {
		// The round's words reach the platters before they can
		// influence any served estimate, mirroring the service's
		// WAL-before-aggregate invariant.
		if err := a.st.AppendReport(collection, transport.EncodeUint64s(words)); err != nil {
			return Collection{}, err
		}
		if err := a.st.Commit(); err != nil {
			return Collection{}, err
		}
		if err := a.st.Rotate(collection, int64(collection)+1); err != nil {
			return Collection{}, err
		}
	}
	colCounts, err := a.fold(collection, n, words)
	if err != nil {
		return Collection{}, err
	}
	return Collection{
		Collection: int(collection),
		Reports:    n,
		Fakes:      a.cfg.NR,
		Estimates:  a.sup.Calibrate(colCounts, n, a.cfg.NR),
		Cumulative: a.Estimates(),
	}, nil
}

// fold is the one place a collection's revealed words (n user reports
// + NR fakes) become state, live and on replay alike: decode them, add
// their support counts to the cumulative counts, advance the sealed
// watermark, and — on a durable node — checkpoint. It returns the
// collection's own support counts.
func (a *Analyzer) fold(collection uint32, n int, words []uint64) ([]int, error) {
	reports := make([]ldp.Report, len(words))
	for i, w := range words {
		reports[i] = a.enc.Decode(w)
	}
	colCounts := ldp.SupportCounts(a.cfg.FO, reports)
	a.stateMu.Lock()
	for v, c := range colCounts {
		a.counts[v] += c
	}
	a.reals += n
	a.fakes += a.cfg.NR
	a.collections = int(collection) + 1
	a.stateMu.Unlock()
	if a.st != nil {
		if err := a.writeCheckpoint(); err != nil {
			return nil, err
		}
	}
	return colCounts, nil
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

// Collections returns how many collection rounds have sealed. On a
// shard it is the done watermark: the rounds the coordinator's done
// frames — or a later round's seal — have told it sealed.
func (a *Analyzer) Collections() int {
	a.stateMu.Lock()
	defer a.stateMu.Unlock()
	if a.f != nil {
		return int(a.f.doneThrough) + 1
	}
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
	if a.f != nil {
		a.f.close()
	}
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

// marshalState encodes (NR, reals, fakes, collections, counts). NR is
// recorded so a recovery with a mismatched fake-report count is
// refused (it would silently mis-calibrate every estimate) instead of
// loaded. Callers hold stateMu.
func (a *Analyzer) marshalState() []byte {
	buf := append([]byte(nil), stateMagic...)
	buf = append(buf, stateVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(a.cfg.NR))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(a.reals))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(a.fakes))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(a.collections))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(a.counts)))
	for _, c := range a.counts {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(c))
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

// writeCheckpoint snapshots the cumulative state. Only OpenEpoch (the
// next collection id, which also drives WAL segment pruning), the
// ledger's charged count, and the state blob are meaningful for the
// analyzer; the service-specific counter slots stay zero.
func (a *Analyzer) writeCheckpoint() error {
	a.stateMu.Lock()
	cp := &store.Checkpoint{
		OpenEpoch: a.collections,
		AllTime:   a.marshalState(),
	}
	a.stateMu.Unlock()
	if a.cfg.Ledger != nil {
		cp.LedgerCharged = a.cfg.Ledger.Epochs()
	}
	return a.st.WriteCheckpoint(cp)
}

// RecoverAnalyzer rebuilds a durable analyzer from cfg.DataDir — the
// newest checkpoint plus a replay of the WAL tail — to a state
// bit-identical to an uninterrupted run over the same sealed
// collections, without re-spending privacy budget. cfg must carry the
// same oracle, NR, and key material as the original run (the oracle,
// domain, and NR are validated against the checkpoint; the AHE key
// must be the persisted one — see ahe.MarshalDGKPrivateKey — or
// future ciphertext columns will not decrypt). A collection whose words were
// logged but whose rotation marker never became durable is dropped:
// its Collect never returned success.
func RecoverAnalyzer(cfg AnalyzerConfig) (*Analyzer, error) {
	if cfg.Shard > 0 {
		return nil, fmt.Errorf("cluster: RecoverAnalyzer: analyzer shard %d keeps no durable state; replace it with a blank NewAnalyzer", cfg.Shard)
	}
	if cfg.DataDir == "" {
		return nil, errors.New("cluster: RecoverAnalyzer needs AnalyzerConfig.DataDir")
	}
	a, err := prepareAnalyzer(cfg)
	if err != nil {
		return nil, err
	}
	st, rec, err := store.Open(cfg.DataDir, a.storeMeta(), cfg.Sync)
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

// restore applies the checkpoint and replays the WAL tail. It runs
// before the accept loop exists, so it mutates state freely.
func (a *Analyzer) restore(rec *store.Recovered) error {
	if cp := rec.Checkpoint; cp != nil {
		if err := a.unmarshalState(cp.AllTime); err != nil {
			return err
		}
		if a.cfg.Ledger != nil {
			if err := a.cfg.Ledger.Restore(cp.LedgerCharged); err != nil {
				return fmt.Errorf("cluster: restoring ledger: %w", err)
			}
		}
	}
	return a.replayTail(rec.Tail)
}

// replayTail walks a recovered WAL tail. It holds, per interrupted
// collection, a words record and — if the seal got as far as the
// marker — the rotation marker. A words record pends under its
// collection, and a later one for the same collection supersedes it: a
// crash between a words record's Commit and its marker leaves an orphan
// in the log, and the re-run round writes the authoritative record
// behind it — only a marker turns pending words into state, so keeping
// the last record is always correct. A rotation marker must find its
// collection's words and must name the next unsealed collection; the
// words are then folded as the seal did, charging the ledger exactly as
// the live Collect did before the crash lost its in-memory charge.
// Words no marker followed are dropped: their collection never
// completed.
func (a *Analyzer) replayTail(tail []store.Record) error {
	pending := map[uint32][]uint64{}
	for _, r := range tail {
		switch r.Type {
		case store.RecordReport:
			words, err := transport.DecodeUint64s(r.Payload)
			if err != nil {
				return fmt.Errorf("cluster: WAL words for collection %d: %w", r.Epoch, err)
			}
			pending[r.Epoch] = words
		case store.RecordRotate:
			words, ok := pending[r.Epoch]
			if !ok {
				return fmt.Errorf("cluster: WAL seals collection %d without its words", r.Epoch)
			}
			delete(pending, r.Epoch)
			if int(r.Epoch) != a.collections {
				return fmt.Errorf("cluster: WAL seals collection %d while %d collections are sealed", r.Epoch, a.collections)
			}
			n := len(words) - a.cfg.NR
			if n <= 0 {
				return fmt.Errorf("cluster: WAL collection %d has %d words for %d fakes", r.Epoch, len(words), a.cfg.NR)
			}
			if a.cfg.Ledger != nil {
				if err := a.cfg.Ledger.Charge(); err != nil {
					return fmt.Errorf("cluster: recharging collection %d: %w", r.Epoch, err)
				}
			}
			if _, err := a.fold(r.Epoch, n, words); err != nil {
				return err
			}
		default:
			return fmt.Errorf("cluster: unexpected WAL record type %d in an analyzer log", r.Type)
		}
	}
	return nil
}
