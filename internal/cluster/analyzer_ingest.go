package cluster

import (
	"cmp"
	"fmt"
	"net"
)

// inFrame is the newest frame a shuffler's link delivered — a vector,
// a ciphertext vector or a fail notice, with its generation — or the
// error that ended the link.
type inFrame struct {
	g    gen
	tag  uint32
	body []byte
	err  error
}

// handshake files an inbound connection in the peer table by its
// hello: a shuffler hello claims that shuffler's slot, replacing its
// old link; any other hello is refused, and so is a connection accepted
// before the slot's link — a shuffler redials only once its link died,
// so the older connection is the dead one, however late its hello is
// read. The goroutine then stays on as the link's one reader
// (readPeer).
func (a *Analyzer) handshake(conn net.Conn, seq uint64) {
	l := newLink(conn, a.cfg.CollectTimeout)
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
	if a.closed { // shutdown took l from pending: it says goodbye and closes it
		a.mu.Unlock()
		return
	}
	if p < 0 || err != nil || seq < a.order[p] {
		a.mu.Unlock()
		l.close()
		return
	}
	if old := a.peers[p]; old != nil {
		old.close()
	}
	a.peers[p], a.inbox[p], a.order[p] = l, inFrame{}, seq
	a.mu.Unlock()
	a.signal()
	a.readPeer(p, l)
}

// readPeer reads shuffler p's link until it ends, filing each frame in
// p's inbox slot — never over a newer generation's — while the link is
// p's current one. The error that ends the link, a frame no vector
// link carries included, is filed too and the link closed, so an
// attempt waiting on the shuffler fails at once instead of at its
// timeout. A frame's bound is the longest vector a seal has asked for,
// read once its header is in: the reader waits across rounds.
func (a *Analyzer) readPeer(p int, l *link) {
	limit := func() int {
		a.mu.Lock()
		defer a.mu.Unlock()
		return vectorFrameLimit(a.cfg.Priv, a.words)
	}
	for {
		var f inFrame
		var payload []byte
		f.tag, payload, f.err = l.recvBounded(limit)
		if f.err == nil {
			switch f.tag {
			case tagVector, tagEncVector, tagFail:
				f.g, f.body, f.err = splitPrefixed(payload)
			default:
				f.err = fmt.Errorf("%w: shuffler %d sent tag %d, want a vector", errBadFrame, p, f.tag)
			}
		}
		a.mu.Lock()
		if a.peers[p] == l && (f.err != nil || !f.g.less(a.inbox[p].g)) {
			a.inbox[p] = f
		}
		a.mu.Unlock()
		a.signal()
		if f.err != nil {
			l.close()
			return
		}
	}
}

// signal wakes a Collect waiting on the peer table or the inboxes.
func (a *Analyzer) signal() {
	select {
	case a.changed <- struct{}{}:
	default:
	}
}
