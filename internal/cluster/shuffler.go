package cluster

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"shuffledp/internal/ahe"
	"shuffledp/internal/pipeline"
	"shuffledp/internal/secretshare"
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
//
// Each stage of the node is one file: accept (shuffler_accept.go), the
// EOS round (shuffler_round.go) and forward (shuffler_forward.go). This
// file holds the wiring and the state they share.
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
	go acceptEach(s.ln, s.handleConn)
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
