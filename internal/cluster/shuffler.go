package cluster

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"time"

	"shuffledp/internal/ahe"
	"shuffledp/internal/oblivious"
	"shuffledp/internal/pipeline"
	"shuffledp/internal/secretshare"
	"shuffledp/internal/transport"
)

// ShufflerConfig parameterizes one shuffler node.
type ShufflerConfig struct {
	// Index is this shuffler's role id in [0, R). Shuffler R-1 is the
	// encrypted column's initial holder: clients send it AHE
	// ciphertexts instead of plain shares.
	Index int
	// Topology names every role's address.
	Topology Topology
	// Listener optionally supplies a pre-bound listener (overriding
	// Topology.Shufflers[Index]); the node closes it.
	Listener net.Listener
	// NR is the number of joint fake reports; this node contributes
	// one share of each (Algorithm 1, "Shuffler j").
	NR int
	// Pub is the analyzer's AHE public key. Every shuffler needs it:
	// the ciphertext vector moves between parties during the shuffle.
	Pub ahe.PublicKey
	// Source is this node's own protocol randomness (share splits,
	// permutation seeds). Use secretshare.Crypto in production; a
	// seeded rng in tests.
	Source secretshare.Source
	// FakeSource, when non-nil, draws the node's fake shares instead
	// of Source — the hook the conformance tests use to align fakes
	// with an in-process protocol.PEOS reference. The stream advances
	// exactly once per collection no matter how many attempts the
	// collection takes (fake shares are cached per collection), so
	// retried rounds stay bit-identical to the reference.
	FakeSource secretshare.Source
	// IdleTimeout bounds the silence tolerated on a client connection
	// between shares frames (0 = none); stalled clients are dropped.
	IdleTimeout time.Duration
	// SealTimeout bounds (a) the wait for a sealed collection's report
	// set to complete and (b) each peer message exchange during the
	// shuffle. 0 means no bound.
	SealTimeout time.Duration
	// Dial, when non-nil, replaces net.DialTimeout for this node's
	// outbound connections (peer mesh and analyzer link) — the
	// chaos-injection hook (faultnet.Network.Dial fits).
	Dial DialFunc

	// Test seams (export_test.go): a shorter hello bound and a smaller
	// share-buffer cap. Zero means defaultHelloTimeout and
	// defaultMaxBuffered.
	helloTimeout time.Duration
	maxBuffered  int
}

// collectionBuf buffers one collection's share column as it streams in
// from clients — ciphertexts decoded and validated, at ingest. The
// nonce map keys resubmit deduplication: a reconnecting client replays
// its whole collection, and a frame whose (index, nonce) is already
// stored is the retransmit it claims to be.
type collectionBuf struct {
	plain  map[uint32]uint64
	encCt  map[uint32]*ahe.Ciphertext
	nonce  map[uint32]uint64
	notify chan struct{}
}

func newCollectionBuf() *collectionBuf {
	return &collectionBuf{
		plain:  make(map[uint32]uint64),
		encCt:  make(map[uint32]*ahe.Ciphertext),
		nonce:  make(map[uint32]uint64),
		notify: make(chan struct{}, 1),
	}
}

func (c *collectionBuf) size() int { return len(c.plain) + len(c.encCt) }

// fakeSet is one collection's cached fake shares. Caching (rather than
// redrawing per attempt) keeps the FakeSource stream position a
// function of the collection alone: a retried attempt reuses the same
// fakes, so estimates stay bit-identical to a run that never failed.
type fakeSet struct {
	plain []uint64
	enc   []*ahe.Ciphertext
}

// peerKey addresses a parked inbound mesh connection: which peer, for
// which collection attempt.
type peerKey struct {
	from int
	g    gen
}

// Shuffler is one running shuffler node. Create it with NewShuffler,
// drive it with Run (which blocks for the node's lifetime), and stop
// it with Close — ungracefully, which is exactly what the
// kill-a-shuffler smoke test does.
//
// The node is self-healing by construction: client errors only ever
// drop that client's connection (delivered shares stay buffered for
// the resubmit), a failed collection attempt only fails that attempt
// (the analyzer aborts and retries under its RetryPolicy), and a lost
// analyzer control link is redialed. The only fatal conditions are
// Close, a malformed analyzer frame, and an unreachable analyzer.
type Shuffler struct {
	cfg ShufflerConfig
	ln  net.Listener
	mod secretshare.Modulus

	// fakeMu serializes fake-share draws so concurrent attempt
	// goroutines (one aborted, one fresh) can never interleave their
	// FakeSource consumption; see fakesFor.
	fakeMu sync.Mutex

	mu sync.Mutex
	// f is the node's end of the control plane: the analyzer link, the
	// attempt in flight, the done watermark and the closed flag, all
	// under mu (follower.go).
	f          *follower
	parked     map[peerKey]net.Conn // inbound mesh conns awaiting their attempt
	parkedMore chan struct{}
	conns      map[net.Conn]struct{} // client (and handshaking) connections
	cols       map[uint32]*collectionBuf
	fakes      map[uint32]*fakeSet
	buffered   int // total shares across s.cols, bounded by defaultMaxBuffered

	// stopPool releases the key's background randomizer pool. The
	// enc-holder's fake-share encryptions and every node's rerandomize
	// pass draw from it.
	stopPool func()
}

// defaultMaxBuffered caps the total client shares a shuffler holds
// across all not-yet-sealed collections. A client streaming shares for
// rounds that never seal must not grow the node without bound: past the
// cap its connection is dropped, and what it buffered stays held until
// the node restarts. At ~16-130 bytes per buffered share (plain word
// vs. serialized ciphertext) the cap bounds a node's client-driven
// memory to low hundreds of megabytes in the worst case — the cluster
// analogue of the service's rejectedLogCap hardening.
const defaultMaxBuffered = 1 << 20

// errBufferFull marks a client that exceeded the node's share-buffer
// cap; its connection is dropped without failing the node.
var errBufferFull = errors.New("cluster: client share buffer cap exceeded")

// NewShuffler validates the configuration and binds the listener; the
// node does nothing else until Run.
func NewShuffler(cfg ShufflerConfig) (*Shuffler, error) {
	if err := cfg.Topology.validate(); err != nil {
		return nil, err
	}
	if cfg.Index < 0 || cfg.Index >= cfg.Topology.R() {
		return nil, fmt.Errorf("cluster: shuffler index %d out of range [0, %d)", cfg.Index, cfg.Topology.R())
	}
	if cfg.NR < 0 {
		return nil, errors.New("cluster: negative fake-report count")
	}
	if cfg.Pub == nil {
		return nil, errors.New("cluster: shuffler needs the analyzer's AHE public key")
	}
	if err := requireWordPlaintext(cfg.Pub); err != nil {
		return nil, err
	}
	if cfg.Source == nil {
		return nil, errors.New("cluster: shuffler needs a randomness source")
	}
	ln, err := listenOrUse(cfg.Listener, cfg.Topology.Shufflers[cfg.Index])
	if err != nil {
		return nil, err
	}
	s := &Shuffler{
		cfg:        cfg,
		ln:         ln,
		mod:        secretshare.NewModulus(64),
		parked:     make(map[peerKey]net.Conn),
		parkedMore: make(chan struct{}, 1),
		conns:      make(map[net.Conn]struct{}),
		cols:       make(map[uint32]*collectionBuf),
		fakes:      make(map[uint32]*fakeSet),
	}
	s.f = &follower{
		mu:          &s.mu,
		dial:        cfg.Dial,
		analyzer:    cfg.Topology.Analyzers[0],
		timeout:     cfg.SealTimeout,
		hello:       helloPayload(cfg.Index),
		prune:       s.prune,
		work:        s.collect,
		doneThrough: -1,
	}
	// Precompute encryption randomizers in the background for the
	// node's lifetime: fake-share encryptions (enc holder) and the
	// rerandomize pass of every shuffle both drain the pool. Pool
	// randomness is crypto/rand, never cfg.Source/FakeSource, so the
	// cluster's estimates stay bit-identical to the in-process run.
	s.stopPool = cfg.Pub.StartRandomizerPool()
	return s, nil
}

// Addr returns the bound listen address.
func (s *Shuffler) Addr() string { return s.ln.Addr().String() }

// encHolder reports whether this node starts each collection holding
// the encrypted column.
func (s *Shuffler) encHolder() bool { return s.cfg.Index == s.cfg.Topology.R()-1 }

// Run connects the node into the cluster and serves collections until
// the analyzer closes its connection (clean shutdown, returns nil),
// Close is called, or the analyzer becomes unreachable or speaks a
// malformed protocol. The connection plan is deterministic: this node
// dials the analyzer (redialing if the link resets) and, per
// collection attempt, every lower-index shuffler; it accepts
// per-attempt connections from higher-index shufflers and report
// streams from clients.
func (s *Shuffler) Run() error {
	defer s.teardown()
	go s.acceptLoop()
	// The follower serves the analyzer's seal / abort / done frames; what
	// the end of a link means is this role's policy. A shuffler holds
	// client shares no other node has, so it only ever follows ONE
	// analyzer run: an orderly close (EOF) ends the cluster, and a
	// malformed frame is a deployment fault to surface, not to retry. A
	// reset mid-stream is a network fault: the in-flight attempt is
	// canceled — its seal may have been lost — and the link redialed.
	for {
		l, err := s.f.connect()
		if err != nil {
			return err
		}
		err = s.f.serve(l)
		s.f.cancelCurrent()
		switch {
		case s.f.isClosed(), errors.Is(err, io.EOF):
			return nil
		case !pipeline.Disconnected(err):
			return fmt.Errorf("cluster: shuffler %d analyzer link: %w", s.cfg.Index, err)
		}
	}
}

// prune is the follower's hook: every collection before floor.col
// sealed durably and attempts older than floor are superseded, so their
// buffers, cached fakes, and parked mesh connections can go. Caller
// holds s.mu.
func (s *Shuffler) prune(floor gen) {
	for c, buf := range s.cols {
		if c < floor.col {
			s.buffered -= buf.size()
			delete(s.cols, c)
		}
	}
	for c := range s.fakes {
		if c < floor.col {
			delete(s.fakes, c)
		}
	}
	for k, conn := range s.parked {
		if k.g.less(floor) {
			conn.Close()
			delete(s.parked, k)
		}
	}
}

// collect executes one collection attempt: wait for the column to
// complete, take the collection's (cached) fake shares, form the
// per-attempt peer mesh, shuffle, forward the result to the analyzer.
func (s *Shuffler) collect(a *attempt) error {
	if a.n <= 0 {
		return fmt.Errorf("cluster: seal with %d users", a.n)
	}
	words, cts, err := s.awaitColumn(a)
	if err != nil {
		return err
	}
	fakes, err := s.fakesFor(a)
	if err != nil {
		return err
	}
	total := a.n + s.cfg.NR
	var plain []uint64
	var enc []*ahe.Ciphertext
	if s.encHolder() {
		// The buffered and cached ciphertexts themselves: the engine
		// writes into no vector it is given, so the column and the fake
		// cache survive an aborted attempt intact for the retry.
		enc = slices.Concat(cts, fakes.enc)
	} else {
		plain = slices.Concat(words, fakes.plain)
	}

	peers, err := s.mesh(a)
	if err != nil {
		return err
	}
	tr := newConnTransport(peers, s.cfg.Pub, total, s.cfg.SealTimeout)
	outPlain, outEnc, err := oblivious.RunParty(oblivious.PartyConfig{
		Config: oblivious.Config{
			Mod:    s.mod,
			Source: s.cfg.Source,
			Pub:    s.cfg.Pub,
		},
		Index:   s.cfg.Index,
		Parties: s.cfg.Topology.R(),
	}, tr, plain, enc)
	if err != nil {
		return err
	}

	// Forward stage: the post-shuffle vector goes to the analyzer on the
	// control link, stamped with the attempt's generation so a stale
	// vector from an aborted attempt is recognizable.
	if a.canceled() {
		return errAttemptAborted
	}
	tag, body := tagVector, transport.EncodeUint64s(outPlain)
	if outEnc != nil {
		tag, body = tagEncVector, encodeCiphertexts(s.cfg.Pub, outEnc)
	}
	if err := s.f.send(tag, prefixed(a.g, body)); err != nil {
		return fmt.Errorf("cluster: forwarding the vector: %w", err)
	}
	return nil
}

// mesh forms the attempt's peer connections: dial every lower-index
// shuffler with this attempt's generation hello, claim the parked
// inbound connections of every higher-index one. All connections are
// registered with the attempt so an abort tears them down.
func (s *Shuffler) mesh(a *attempt) ([]net.Conn, error) {
	r := s.cfg.Topology.R()
	peers := make([]net.Conn, r)
	deadline := time.Now().Add(defaultDialTimeout)
	for j := 0; j < s.cfg.Index; j++ {
		if a.canceled() {
			return nil, errAttemptAborted
		}
		conn, err := dialRetry(s.cfg.Dial, s.cfg.Topology.Shufflers[j], defaultDialTimeout)
		if err != nil {
			return nil, err
		}
		if err := a.addConn(conn); err != nil {
			return nil, err
		}
		if err := writePeerHello(conn, s.cfg.Index, a.g); err != nil {
			return nil, fmt.Errorf("cluster: peer hello to shuffler %d: %w", j, err)
		}
		peers[j] = conn
	}
	for j := s.cfg.Index + 1; j < r; j++ {
		conn, err := s.claimPeer(j, a, deadline)
		if err != nil {
			return nil, err
		}
		peers[j] = conn
	}
	return peers, nil
}

// claimPeer waits for the inbound mesh connection of one higher-index
// peer for this attempt's generation.
func (s *Shuffler) claimPeer(from int, a *attempt, deadline time.Time) (net.Conn, error) {
	key := peerKey{from: from, g: a.g}
	var conn net.Conn
	err := await(func() (bool, error) {
		s.mu.Lock()
		defer s.mu.Unlock()
		var ok bool
		if conn, ok = s.parked[key]; ok {
			delete(s.parked, key)
			return true, nil
		}
		if s.f.closed {
			return false, errNodeClosed
		}
		return false, nil
	}, s.parkedMore, a.cancel, max(time.Until(deadline), time.Nanosecond))
	if errors.Is(err, errAwaitTimeout) {
		err = fmt.Errorf("cluster: shuffler %d never joined collection %d attempt %d", from, a.g.col, a.g.att)
	}
	if err != nil {
		return nil, err
	}
	if err := a.addConn(conn); err != nil {
		return nil, err
	}
	return conn, nil
}

// fakesFor returns the collection's fake shares, drawing them on first
// use. Draws are serialized under fakeMu and refused for canceled
// attempts, so the FakeSource stream advances exactly once per
// collection, in collection order, no matter how attempts interleave.
func (s *Shuffler) fakesFor(a *attempt) (*fakeSet, error) {
	s.fakeMu.Lock()
	defer s.fakeMu.Unlock()
	s.mu.Lock()
	fs := s.fakes[a.g.col]
	s.mu.Unlock()
	if fs != nil {
		return fs, nil
	}
	if a.canceled() {
		return nil, errAttemptAborted
	}
	src := s.cfg.FakeSource
	if src == nil {
		src = s.cfg.Source
	}
	fs = &fakeSet{}
	if s.encHolder() {
		fs.enc = make([]*ahe.Ciphertext, s.cfg.NR)
		for k := range fs.enc {
			c, err := s.cfg.Pub.Encrypt(s.mod.Random(src))
			if err != nil {
				return nil, err
			}
			fs.enc[k] = c
		}
	} else {
		fs.plain = make([]uint64, s.cfg.NR)
		for k := range fs.plain {
			fs.plain[k] = s.mod.Random(src)
		}
	}
	s.mu.Lock()
	s.fakes[a.g.col] = fs
	s.mu.Unlock()
	return fs, nil
}

// awaitColumn blocks until the attempt's collection holds exactly the
// shares of users 0..n-1 (clients may still be flushing — or
// resubmitting — when the analyzer seals) and returns a snapshot of
// the column. The buffer itself stays in place: a retried attempt
// reads the same column again. An index at or past n is a protocol
// violation: the analyzer sealed a smaller round than some client
// reported into.
func (s *Shuffler) awaitColumn(a *attempt) ([]uint64, []*ahe.Ciphertext, error) {
	s.mu.Lock()
	if int64(a.g.col) <= s.f.doneThrough {
		s.mu.Unlock()
		return nil, nil, fmt.Errorf("cluster: collection %d already sealed", a.g.col)
	}
	col := s.cols[a.g.col]
	if col == nil {
		col = newCollectionBuf()
		s.cols[a.g.col] = col
	}
	s.mu.Unlock()
	size := 0
	err := await(func() (bool, error) {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.f.closed {
			return false, errNodeClosed
		}
		size = col.size()
		return size >= a.n, nil
	}, col.notify, a.cancel, s.cfg.SealTimeout)
	if errors.Is(err, errAwaitTimeout) {
		err = fmt.Errorf("cluster: collection %d sealed at %d users but only %d shares arrived", a.g.col, a.n, size)
	}
	if err != nil {
		return nil, nil, err
	}
	// Snapshot under the lock: clients may still be resubmitting into
	// this buffer while the shuffle reads the snapshot.
	s.mu.Lock()
	defer s.mu.Unlock()
	if col.size() != a.n {
		return nil, nil, fmt.Errorf("cluster: collection %d has %d shares for %d sealed users", a.g.col, col.size(), a.n)
	}
	if s.encHolder() {
		cts := make([]*ahe.Ciphertext, a.n)
		for i := range cts {
			ct, ok := col.encCt[uint32(i)]
			if !ok {
				return nil, nil, fmt.Errorf("cluster: collection %d is missing user %d (an index past the sealed count was reported)", a.g.col, i)
			}
			cts[i] = ct
		}
		return nil, cts, nil
	}
	words := make([]uint64, a.n)
	for i := range words {
		w, ok := col.plain[uint32(i)]
		if !ok {
			return nil, nil, fmt.Errorf("cluster: collection %d is missing user %d (an index past the sealed count was reported)", a.g.col, i)
		}
		words[i] = w
	}
	return words, nil, nil
}

// acceptLoop classifies inbound connections by their hello frame:
// higher-index peers park generation-stamped mesh connections, clients
// get a report reader.
func (s *Shuffler) acceptLoop() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed by teardown/Close
		}
		go s.handleConn(conn)
	}
}

func (s *Shuffler) handleConn(conn net.Conn) {
	// Track the connection from its first byte — teardown must be able
	// to close it (unblocking this goroutine) even before the hello
	// identifies it — and bound the hello wait itself.
	s.mu.Lock()
	if s.f.closed {
		s.mu.Unlock()
		conn.Close()
		return
	}
	s.conns[conn] = struct{}{}
	s.mu.Unlock()
	// recv disarms the hello deadline again: the role loops below manage
	// their own.
	tag, payload, err := newLink(conn, 0).recv(controlFrameLimit, cmp.Or(s.cfg.helloTimeout, defaultHelloTimeout))
	if err != nil {
		s.dropConn(conn)
		return
	}
	switch tag {
	case tagPeerHello:
		from, g, err := parsePeerHello(payload, s.cfg.Topology.R())
		if err != nil || from <= s.cfg.Index {
			s.dropConn(conn)
			return
		}
		s.parkPeer(conn, from, g)
	case tagClientHello:
		s.readClient(conn)
	default:
		s.dropConn(conn)
	}
}

// parkPeer files an inbound mesh connection under its (peer,
// generation) key for the matching attempt to claim. Stale generations
// — older than the current attempt or a sealed collection — are
// leftovers of aborted rounds and are dropped at the door.
func (s *Shuffler) parkPeer(conn net.Conn, from int, g gen) {
	s.mu.Lock()
	if s.f.closed {
		s.mu.Unlock()
		conn.Close()
		return
	}
	if s.f.behind(g) {
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
		return
	}
	key := peerKey{from: from, g: g}
	if old, ok := s.parked[key]; ok {
		old.Close()
	}
	s.parked[key] = conn
	delete(s.conns, conn) // now owned by the parked set
	s.mu.Unlock()
	select {
	case s.parkedMore <- struct{}{}:
	default:
	}
}

// dropConn untracks and closes a connection that failed its handshake.
func (s *Shuffler) dropConn(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	conn.Close()
}

// readClient is the node's ingest stage: the same deadline-guarded
// pipeline.Reader the streaming service uses, feeding the collection
// buffers. Every ingest error is connection-scoped by design — EOF is
// the client's "done", a disconnect mid-frame is the reconnect path's
// normal signature (the client redials and resubmits, nonce dedup
// makes the replay idempotent), and a stalled, flooding, conflicting,
// or malformed client is simply dropped. Its delivered shares stay
// valid; nothing a client sends can fail the node.
func (s *Shuffler) readClient(conn net.Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	rd := &pipeline.Reader{
		Conn:        conn,
		IdleTimeout: s.cfg.IdleTimeout,
		// The longest frame this holder's clients send: sharesPerFrame
		// words, or ciphertexts at the encrypted holder.
		MaxFrame: sharesPrefix + sharesPerFrame*s.shareBytes(),
		// ingest copies every share out of the frame (words decoded,
		// ciphertexts SetBytes'd) before the reader reuses its buffer.
		Handle: s.ingest,
	}
	_ = rd.Run()
}

// shareBytes is the size of one client share at this node: a word, or
// a ciphertext at the encrypted holder.
func (s *Shuffler) shareBytes() int {
	if s.encHolder() {
		return s.cfg.Pub.CiphertextBytes()
	}
	return 8
}

// ingest buffers one client frame whole or not at all. The encrypted
// holder accepts only encShares frames and the others only shares, and
// the encrypted holder decodes its frame here, before anything is
// buffered — length, range and zero per element, one unit check for the
// frame (PublicKey.DeserializeVector): a malformed ciphertext costs its
// sender this connection and leaves every index of the frame free for
// the honest resubmit, where validating at seal time would fail every
// attempt of the collection. Nonce dedup is per user: a taken index
// whose stored nonce is the frame's nonce base + i is the retransmit it
// claims to be (skipped, and never counted against the buffer cap); a
// different nonce is a conflicting report and refuses the frame, first
// write wins. The cap counts only the frame's fresh shares.
func (s *Shuffler) ingest(tag uint32, payload []byte) error {
	switch tag {
	case tagShares, tagEncShares:
	case tagRetiredReport, tagRetiredEncReport:
		return fmt.Errorf("%w: client sent retired per-report tag %d (shares travel in shares / encShares frames)", errBadFrame, tag)
	default:
		return fmt.Errorf("%w: client sent tag %d", errBadFrame, tag)
	}
	enc := s.encHolder()
	if (tag == tagEncShares) != enc {
		return fmt.Errorf("%w: share kind does not match shuffler role %d", errBadFrame, s.cfg.Index)
	}
	sf, k, err := parseSharesFrame(payload, s.shareBytes())
	if err != nil {
		return err
	}
	var words []uint64
	var cts []*ahe.Ciphertext
	if enc {
		if cts, err = s.cfg.Pub.DeserializeVector(sf.body); err != nil {
			return fmt.Errorf("%w: ciphertexts for collection %d users %d..%d: %v", errBadFrame, sf.collection, sf.first, int64(sf.first)+int64(k)-1, err)
		}
	} else {
		words, _ = transport.DecodeUint64s(sf.body) // whole words: parseSharesFrame checked
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if int64(sf.collection) <= s.f.doneThrough {
		// The collection already sealed durably: a late or re-sent
		// frame is simply late, and dropped.
		return nil
	}
	col := s.cols[sf.collection]
	if col == nil {
		col = newCollectionBuf()
		s.cols[sf.collection] = col
	}
	fresh := 0
	for i := 0; i < k; i++ {
		idx := sf.first + uint32(i)
		nonce, taken := col.nonce[idx]
		if !taken {
			fresh++
		} else if nonce != sf.nonce+uint64(i) {
			return fmt.Errorf("cluster: conflicting share for collection %d index %d", sf.collection, idx)
		}
	}
	if s.buffered+fresh > cmp.Or(s.cfg.maxBuffered, defaultMaxBuffered) {
		return errBufferFull
	}
	for i := 0; i < k; i++ {
		idx := sf.first + uint32(i)
		if _, taken := col.nonce[idx]; taken {
			continue // idempotent resubmit
		}
		if enc {
			col.encCt[idx] = cts[i]
		} else {
			col.plain[idx] = words[i]
		}
		col.nonce[idx] = sf.nonce + uint64(i)
	}
	s.buffered += fresh
	if fresh > 0 {
		select {
		case col.notify <- struct{}{}:
		default:
		}
	}
	return nil
}

// Close tears the node down ungracefully: every connection and the
// listener drop, in-flight collections fail. This is the induced fault
// of the kill-a-shuffler smoke test.
func (s *Shuffler) Close() error {
	s.teardown()
	return nil
}

// teardown runs from both Run's exit and Close; every step is
// idempotent. The follower goes first: once it is closed no attempt
// reports a failure and no fresh link is swapped in.
func (s *Shuffler) teardown() {
	s.f.close()
	s.stopPool()
	s.ln.Close()
	s.mu.Lock()
	conns := make([]net.Conn, 0, len(s.conns)+len(s.parked))
	for c := range s.conns {
		conns = append(conns, c)
	}
	for k, c := range s.parked {
		conns = append(conns, c)
		delete(s.parked, k)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}
