package cluster

// The follower: a shuffler's end of the analyzer's control plane
// (DESIGN.md §9). It keeps a live, hello-identified link to the
// analyzer, turns its seal / abort / done frames into one attempt slot
// superseded by generation, and reports a live attempt's failure with
// one fail notice. What the attempt does (a shuffle), what a superseded
// generation frees, and what a lost or misbehaving link means for the
// node's lifetime are the shuffler's.

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// attempt is one collection attempt in flight on a follower node. The
// analyzer's abort (or a newer seal, or a lost control link) cancels
// it: the cancel channel closes and every connection it claimed is torn
// down, which unblocks a shuffler's RunParty stuck mid-phase.
type attempt struct {
	g      gen
	n      int
	cancel chan struct{}
	done   chan struct{} // closed when the attempt's goroutine returns

	mu      sync.Mutex
	aborted bool
	conns   []net.Conn
}

// errAttemptAborted marks attempt-goroutine errors caused by the
// attempt's own cancellation — not reported to the analyzer, which
// moved on already.
var errAttemptAborted = errors.New("cluster: collection attempt aborted")

func (a *attempt) abort() {
	a.mu.Lock()
	if a.aborted {
		a.mu.Unlock()
		return
	}
	a.aborted = true
	a.mu.Unlock()
	close(a.cancel)
	a.closeConns()
}

// addConn registers a mesh connection with the attempt so abort can
// close it; a connection arriving after the abort is closed instead.
func (a *attempt) addConn(c net.Conn) error {
	a.mu.Lock()
	if a.aborted {
		a.mu.Unlock()
		c.Close()
		return errAttemptAborted
	}
	a.conns = append(a.conns, c)
	a.mu.Unlock()
	return nil
}

func (a *attempt) canceled() bool {
	select {
	case <-a.cancel:
		return true
	default:
		return false
	}
}

// closeConns closes every connection the attempt claimed (the
// attempt's exchange is over; per-attempt connections are never
// reused).
func (a *attempt) closeConns() {
	a.mu.Lock()
	conns := append([]net.Conn(nil), a.conns...)
	a.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// follower is a shuffler's end of the analyzer's control plane.
type follower struct {
	// mu is the shuffler's state lock, shared: its per-collection state
	// (parked mesh connections) is admitted against cur and doneThrough,
	// and the check and the insert it licenses must be one critical
	// section with start and advance.
	mu *sync.Mutex

	dial     DialFunc
	analyzer string
	timeout  time.Duration // bounds each write on the analyzer link
	hello    []byte        // the shuffler hello's payload
	// prune drops the shuffler's state for generations before floor (every
	// collection before floor.col sealed; older attempts of floor.col
	// are superseded). Called with mu held.
	prune func(floor gen)
	// work is one attempt's job, run in the attempt's own goroutine so an
	// abort can cancel it mid-wait; it answers over send. A non-nil
	// error from a live attempt becomes the fail notice.
	work func(*attempt) error

	// Under mu.
	ctrl        *link
	cur         *attempt
	doneThrough int64 // highest collection known sealed; -1 initially
	closed      bool
	quit        chan struct{} // closed with closed: stops a redial
}

var errNodeClosed = errors.New("cluster: node closed")

// errGoodbye is serve's verdict on the analyzer's goodbye frame: the
// analyzer closed in order, and the cluster is over.
var errGoodbye = errors.New("cluster: the analyzer said goodbye")

// connect dials the analyzer (retrying inside the dial budget),
// identifies this node, and swaps the fresh link in, closing a dead
// predecessor. The analyzer files the link by the hello's index.
func (f *follower) connect() (*link, error) {
	conn, err := dialRetry(f.dial, f.analyzer, defaultDialTimeout, f.quit)
	if err != nil {
		return nil, err
	}
	l := newLink(conn, f.timeout)
	if err := l.send(tagShufflerHello, f.hello); err != nil {
		l.close()
		return nil, err
	}
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		l.close()
		return nil, errNodeClosed
	}
	old := f.ctrl
	f.ctrl = l
	f.mu.Unlock()
	if old != nil {
		old.close()
	}
	return l, nil
}

// serve dispatches the analyzer's frames off one link until the link
// fails, the analyzer says goodbye (errGoodbye) or a frame is refused —
// a retired tag included — and returns why. Attempts run in their own
// goroutines, so serve is back at the link in time to read the abort
// that cancels one. What the error means is the caller's policy.
func (f *follower) serve(l *link) error {
	for {
		tag, payload, err := l.recv(controlFrameLimit, 0)
		if err != nil {
			return err
		}
		switch tag {
		case tagSeal:
			g, n, err := parseSealFrame(payload)
			if err != nil {
				return err
			}
			f.start(g, n)
		case tagAbort:
			g, err := parseAbortFrame(payload)
			if err != nil {
				return err
			}
			f.abortGen(g)
		case tagDone:
			col, err := parseDoneFrame(payload)
			if err != nil {
				return err
			}
			f.mu.Lock()
			f.advance(gen{col: col + 1})
			f.mu.Unlock()
		case tagGoodbye:
			return errGoodbye
		default:
			return fmt.Errorf("%w: analyzer sent tag %d", errBadFrame, tag)
		}
	}
}

// behind reports whether generation g is stale for data arriving now:
// its collection sealed, or an attempt newer than it is armed. Caller
// holds mu.
func (f *follower) behind(g gen) bool {
	return int64(g.col) <= f.doneThrough || (f.cur != nil && g.less(f.cur.g))
}

// advance raises the done watermark to just under floor's collection
// and prunes the role's state before floor. Caller holds mu.
func (f *follower) advance(floor gen) {
	f.doneThrough = max(f.doneThrough, int64(floor.col)-1)
	f.prune(floor)
}

// start installs a new attempt — canceling its predecessor, a newer
// seal supersedes whatever was running — and launches its goroutine. A
// seal at or below the done watermark, or not newer than the current
// generation, is stale control traffic and ignored. A seal for
// collection c also proves every collection below c sealed, whether or
// not their done frames arrived. The predecessor is aborted inside the
// critical section that publishes its successor, so no one sees the
// new attempt armed beside a live old one; abort takes only the
// attempt's own mutex, which is never held while taking mu.
func (f *follower) start(g gen, n int) {
	f.mu.Lock()
	prev := f.cur
	if f.behind(g) || (prev != nil && prev.g == g) {
		f.mu.Unlock()
		return
	}
	cur := &attempt{g: g, n: n, cancel: make(chan struct{}), done: make(chan struct{})}
	f.cur = cur
	f.advance(g)
	if prev != nil {
		prev.abort()
	}
	f.mu.Unlock()
	go f.run(cur, prev)
}

// run drives one attempt once its predecessor's goroutine has returned,
// so attempts never share the node's Source (a seeded one is not safe
// for concurrent use). An aborted predecessor returns at its next wait
// or I/O. run reports the failure of a live attempt to the analyzer, so
// its Collect fails (and retries) with the cause instead of a bare
// timeout. A canceled attempt dies silently: the analyzer moved on.
func (f *follower) run(a, prev *attempt) {
	defer close(a.done)
	defer a.closeConns()
	if prev != nil {
		<-prev.done
	}
	err := f.work(a)
	if err == nil || a.canceled() || f.isClosed() {
		return
	}
	msg := err.Error()
	_ = f.send(tagFail, prefixed(a.g, []byte(msg[:min(len(msg), maxFailMessage)])))
}

// current returns the attempt slot's occupant, finished or not.
func (f *follower) current() *attempt {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.cur
}

// abortGen cancels the current attempt if it is g (an abort racing a
// newer seal must not cancel the newer attempt).
func (f *follower) abortGen(g gen) {
	if cur := f.current(); cur != nil && cur.g == g {
		cur.abort()
	}
}

// cancelCurrent aborts whatever attempt is in flight — its seal may
// have been lost with the link.
func (f *follower) cancelCurrent() {
	if cur := f.current(); cur != nil {
		cur.abort()
	}
}

// send writes one frame to the current analyzer link.
func (f *follower) send(tag uint32, payload []byte) error {
	f.mu.Lock()
	l := f.ctrl
	f.mu.Unlock()
	if l == nil {
		return errors.New("cluster: no analyzer link")
	}
	return l.send(tag, payload)
}

func (f *follower) isClosed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.closed
}

// close marks the node closed (no link is swapped in and no fail notice
// sent afterwards), drops the analyzer link and cancels the attempt
// in flight. Idempotent.
func (f *follower) close() {
	f.mu.Lock()
	if !f.closed {
		close(f.quit)
	}
	f.closed = true
	l, cur := f.ctrl, f.cur
	f.mu.Unlock()
	if l != nil {
		l.close()
	}
	if cur != nil {
		cur.abort()
	}
}
