package cluster

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"time"

	"shuffledp/internal/ahe"
	"shuffledp/internal/oblivious"
)

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
	return s.forward(a, outPlain, outEnc)
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
		conn, err := dialRetry(s.cfg.Dial, s.cfg.Topology.Shufflers[j], defaultDialTimeout, a.cancel)
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
	fs = &fakeSet{plain: make([]uint64, s.cfg.NR)}
	for k := range fs.plain {
		fs.plain[k] = s.mod.Random(src)
	}
	if s.encHolder() {
		fs.enc = make([]*ahe.Ciphertext, s.cfg.NR)
		if err := s.cfg.Pub.EncryptChunk(fs.enc, fs.plain, s.cfg.Pub.NewScratch()); err != nil {
			return nil, err
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
