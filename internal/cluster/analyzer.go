package cluster

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"shuffledp/internal/ahe"
	"shuffledp/internal/budget"
	"shuffledp/internal/ldp"
	"shuffledp/internal/secretshare"
	"shuffledp/internal/store"
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
	// shufflers to be connected and the wait for their vectors. 0 means
	// no bound.
	CollectTimeout time.Duration

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
	// only when Collect re-ran the round after a fault).
	Attempts int
}

// Analyzer is the running analyzer node. Create with NewAnalyzer (or
// RecoverAnalyzer over a durable directory), drive rounds with
// Collect, query with Estimates/Totals, and stop with Close (orderly)
// or Crash (simulated power cut).
//
// Each stage of the node is one file: ingest (analyzer_ingest.go),
// await/collect (analyzer_collect.go), reveal/estimate
// (analyzer_reveal.go) and seal/recover (analyzer_seal.go). This file
// holds the wiring and the state they share.
type Analyzer struct {
	cfg AnalyzerConfig
	enc *ldp.WordEncoder
	sup ldp.Support // calibrates per-collection and cumulative counts alike
	mod secretshare.Modulus
	ln  net.Listener
	st  *store.Store

	mu sync.Mutex
	// peers holds the shufflers' control links by index, and inbox the
	// newest frame each link delivered (or the error that ended it). A
	// reconnecting shuffler replaces its slot; a link that ended stays
	// in its slot until a broadcast fails on it.
	peers   []*link
	inbox   []inFrame
	order   []uint64           // accept order of the link last filed in each slot
	pending map[*link]struct{} // accepted, hello not yet read
	changed chan struct{}      // a link was filed or delivered a frame or ended
	words   int                // the longest vector any seal asked for
	closed  bool

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
	go acceptEach(a.ln, a.handshake)
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
		cfg:     cfg,
		enc:     enc,
		sup:     sup,
		mod:     secretshare.NewModulus(64),
		ln:      ln,
		peers:   make([]*link, cfg.Topology.R()),
		inbox:   make([]inFrame, cfg.Topology.R()),
		order:   make([]uint64, cfg.Topology.R()),
		pending: make(map[*link]struct{}),
		changed: make(chan struct{}, 1),
		counts:  make([]int, cfg.FO.Domain()),
	}
	return a, nil
}

func (a *Analyzer) storeMeta() store.Meta {
	return store.Meta{Oracle: a.cfg.FO.Name(), Domain: a.cfg.FO.Domain()}
}

// Addr returns the bound listen address.
func (a *Analyzer) Addr() string { return a.ln.Addr().String() }

func (a *Analyzer) isClosed() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.closed
}

// Close shuts the node down in an orderly way: every shuffler link
// gets a goodbye frame and drops (the shufflers' Run returns nil on
// it), the listener closes, and the durable store is flushed and
// closed.
func (a *Analyzer) Close() error {
	a.shutdown(false)
	return nil
}

// shutdown closes the node; a crash says no goodbye, so its shufflers
// redial as they do after any other lost link.
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
		if l == nil {
			continue
		}
		if !crash {
			_ = l.send(tagGoodbye, nil)
		}
		l.close()
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
