package cluster

import (
	"cmp"
	"net"
)

// handshake files an inbound connection in the peer table by its
// hello: a shuffler hello claims that shuffler's slot, replacing its
// old link; any other hello is refused.
func (a *Analyzer) handshake(conn net.Conn) {
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
