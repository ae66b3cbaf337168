package cluster

import (
	"errors"
	"io"
	"time"

	"shuffledp/internal/ldp"
	"shuffledp/internal/store"
)

// Hooks for the external test package (cluster_test), which owns the
// multi-node harness but cannot see unexported state or frame tags.

// Crash hard-stops a durable analyzer the way a power cut would: the
// store is closed without flushing, and RecoverAnalyzer finds the
// newest checkpoint — the last collection whose seal returned. On an
// in-memory analyzer it behaves like Close.
func (a *Analyzer) Crash() { a.shutdown(true) }

// StageCheckpoint creates dir holding what a durable analyzer under
// fo and nr leaves once it has sealed collections rounds: one
// header-only WAL segment and the checkpoint of reals user reports,
// collections×nr fakes and the support counts of all of them.
func StageCheckpoint(dir string, fo ldp.FrequencyOracle, nr, collections, reals int, counts []int) error {
	st, err := store.Create(dir, store.Meta{Oracle: fo.Name(), Domain: fo.Domain()}, store.SyncBatch)
	if err != nil {
		return err
	}
	a := &Analyzer{
		cfg:    AnalyzerConfig{FO: fo, NR: nr},
		st:     st,
		counts: make([]int, fo.Domain()),
		fakes:  (collections - 1) * nr,
	}
	return errors.Join(a.writeCheckpoint(uint32(collections-1), reals, counts), st.Close())
}

// WriteClientHello opens a connection to a shuffler the way a client's
// ingest link does.
func WriteClientHello(w io.Writer) error { return writeHello(w, tagClientHello, 0) }

// SharesPerFrame is the most users a client puts in one shares frame.
const SharesPerFrame = sharesPerFrame

// Client-link frame tags, for hostile clients that write frames by hand.
const (
	TagRetiredReport    = tagRetiredReport
	TagRetiredEncReport = tagRetiredEncReport
	TagShares           = tagShares
	TagEncShares        = tagEncShares
)

// WriteSharesFrame writes one client frame for users first.. carrying
// body verbatim — a hostile client's way to hand a shuffler arbitrary
// bytes under any tag.
func WriteSharesFrame(w io.Writer, tag, col, first uint32, nonce uint64, body []byte) error {
	return writeSharesFrame(w, tag, sharesFrame{collection: col, first: first, nonce: nonce, body: body})
}

// BadCiphertexts returns ciphertext-sized elements the encrypted holder
// must refuse: zero, ≥ n, and a non-unit.
var BadCiphertexts = badCiphertexts

// BufferedShares reports how many client shares the node holds against
// its share-buffer cap.
func (s *Shuffler) BufferedShares() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buffered
}

// SetHelloTimeout shortens how long a shuffler built from cfg waits for
// an inbound connection's hello.
func (cfg *ShufflerConfig) SetHelloTimeout(d time.Duration) { cfg.helloTimeout = d }

// SetMaxBuffered lowers the client share-buffer cap of a shuffler built
// from cfg.
func (cfg *ShufflerConfig) SetMaxBuffered(n int) { cfg.maxBuffered = n }

// SetHelloTimeout shortens how long an analyzer built from cfg waits
// for an inbound connection's hello.
func (cfg *AnalyzerConfig) SetHelloTimeout(d time.Duration) { cfg.helloTimeout = d }
