package cluster

import (
	"cmp"
	"fmt"
	"net"

	"shuffledp/internal/ahe"
	"shuffledp/internal/pipeline"
	"shuffledp/internal/transport"
)

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

// handleConn classifies an inbound connection by its hello frame:
// higher-index peers park generation-stamped mesh connections, clients
// get a report reader.
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
	if s.f.closed || s.f.behind(g) {
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

// dropConn untracks and closes a client or handshaking connection.
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
	defer s.dropConn(conn)
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
