package cluster

// The two primitives under the control plane (DESIGN.md §9): a link is
// how every control frame is written and read, await is how every
// condition is waited on. Outside the mesh's connTransport nothing else
// in the package arms a deadline, reads a frame or polls.

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"shuffledp/internal/ahe"
	"shuffledp/internal/transport"
)

// Frame bounds. Every reader names the longest payload its peer may
// legitimately send, from what it already knows, and refuses anything
// longer on the 8-byte header alone.
const (
	// controlFrameLimit bounds hello, seal, abort and done frames — the
	// longest is the 12-byte seal.
	controlFrameLimit = 32
	// maxFailMessage caps a fail notice's text at the writer: the notice
	// rides the vector link, whose reader must admit it even when the
	// round's vector is shorter.
	maxFailMessage = 256
)

// vectorFrameLimit bounds a vector frame carrying a post-shuffle vector
// of total elements: the generation prefix plus the vector in its
// wider encoding — or a fail notice in its place.
func vectorFrameLimit(pub ahe.PublicKey, total int) int {
	return 8 + max(total*max(8, pub.CiphertextBytes()), maxFailMessage)
}

// link is one control connection: the connection, the mutex
// that keeps two writers' frames from interleaving on it (an aborted
// attempt's fail notice and its successor's vector), and the timeout
// that bounds each write.
type link struct {
	conn    net.Conn
	timeout time.Duration // per-write bound, 0 = none
	wmu     sync.Mutex
}

func newLink(conn net.Conn, timeout time.Duration) *link {
	return &link{conn: conn, timeout: timeout}
}

// send writes one frame under the write mutex and the link's timeout.
func (l *link) send(tag uint32, payload []byte) error {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	if l.timeout > 0 {
		if err := l.conn.SetWriteDeadline(time.Now().Add(l.timeout)); err != nil {
			return err
		}
		defer l.conn.SetWriteDeadline(time.Time{})
	}
	return transport.WriteTaggedFrame(l.conn, tag, payload)
}

// recv reads one frame whose payload is at most limit bytes, waiting
// at most wait for it (0 = until the peer speaks or the link closes).
// A longer length prefix is errBadFrame before any payload byte is
// buffered. One reader per link at a time.
func (l *link) recv(limit int, wait time.Duration) (uint32, []byte, error) {
	if wait > 0 {
		if err := l.conn.SetReadDeadline(time.Now().Add(wait)); err != nil {
			return 0, nil, err
		}
		defer l.conn.SetReadDeadline(time.Time{})
	}
	tag, payload, err := transport.ReadTaggedFrameLimit(l.conn, limit)
	if errors.Is(err, transport.ErrFrameTooLarge) {
		err = fmt.Errorf("%w: %w", errBadFrame, err)
	}
	return tag, payload, err
}

func (l *link) close() { l.conn.Close() }

// acceptEach hands every connection ln accepts to handle, each on its
// own goroutine, until ln closes.
func acceptEach(ln net.Listener, handle func(net.Conn)) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go handle(conn)
	}
}

// errAwaitTimeout is await's timeout verdict; callers word the failure
// from what their condition last saw.
var errAwaitTimeout = errors.New("cluster: wait timed out")

// await blocks until cond reports done or fails. cond is re-evaluated
// on every wake signal and at least every 50 ms — conditions also
// depend on state no channel announces, a node's closed flag first of
// all. A closed cancel channel (nil = none) ends the wait with
// errAttemptAborted, an elapsed timeout (0 = none) with
// errAwaitTimeout.
func await(cond func() (bool, error), wake, cancel <-chan struct{}, timeout time.Duration) error {
	var deadline <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		deadline = t.C
	}
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	for {
		if done, err := cond(); done || err != nil {
			return err
		}
		select {
		case <-wake:
		case <-cancel:
			return errAttemptAborted
		case <-deadline:
			return errAwaitTimeout
		case <-tick.C:
		}
	}
}
