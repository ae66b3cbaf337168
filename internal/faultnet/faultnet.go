// Package faultnet is a deterministic fault layer for the networked
// tiers: it wraps the connections it dials and injects byte-offset
// connection resets and refused connections from a fault plan. The
// cluster's self-healing machinery (internal/cluster retry, reconnect,
// and resubmit paths) is regression-tested against this layer: the
// cluster's enumerated fault test plans one fault per row — a reset at
// every operation boundary of a clean round, a refused dial per
// connection — and proves that every row still converges to estimates
// bit-identical to the in-process reference, with the budget ledger
// charged exactly once per sealed collection.
//
// Determinism is the point. Every wrapped connection is numbered in
// wrap order, and Config.Plan assigns its fault from that number alone,
// so the k-th connection of a run always takes the same fault. What
// stays nondeterministic is only the interleaving of goroutines.
//
// An injected reset is a real reset where the platform allows: the
// wrapper arms SO_LINGER with a zero timeout on TCP connections before
// closing, so the peer observes an RST (ECONNRESET), not a clean FIN —
// the difference between "the client finished" and "the client
// vanished mid-frame" that the cluster's readers must classify
// correctly. Both directions of a connection count against one byte
// budget, an operation that would cross the budget is truncated to it
// first, and the reset fires as soon as the budget is spent, so resets
// land mid-frame by construction.
package faultnet

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// ErrInjected is the error surfaced on the injecting side of a
// planned connection reset. It wraps syscall.ECONNRESET so the
// classification helpers that recognize genuine peer resets (for
// example pipeline.Disconnected) treat an injected one identically.
var ErrInjected = fmt.Errorf("faultnet: injected connection reset: %w", syscall.ECONNRESET)

// ErrRefused is returned by Dial when the plan refuses the connection.
// It wraps syscall.ECONNREFUSED for the same reason ErrInjected wraps
// ECONNRESET.
var ErrRefused = fmt.Errorf("faultnet: connection refused by plan: %w", syscall.ECONNREFUSED)

// Fault is the plan for one connection. The zero Fault injects nothing
// — the connection behaves exactly like the underlying one.
type Fault struct {
	// Refuse drops the connection at establishment: Dial returns
	// ErrRefused.
	Refuse bool
	// ResetAfter injects a hard reset once this many bytes have crossed
	// the connection, reads and writes combined (0 = never). The
	// operation that reaches the budget is truncated to it, so the
	// reset tears a frame mid-byte-stream.
	ResetAfter int
}

// Config parameterizes a Network.
type Config struct {
	// Plan is called once per wrapped connection with the connection's
	// number (0, 1, ... in wrap order) and returns its Fault verbatim.
	// Nil plans no fault.
	Plan func(conn int) Fault
}

// Stats counts the faults a Network actually injected — fault tests
// assert on these so a plan that silently stopped firing fails the
// test instead of quietly testing nothing.
type Stats struct {
	// Conns is the number of connections dialed (faults planned).
	Conns int
	// Refused counts connections dropped at establishment.
	Refused int
	// Resets counts injected connection resets.
	Resets int
}

// Network plans faults and wraps connections. One Network is one
// failure domain: its connection counter and stats are shared across
// everything it wraps. Safe for concurrent use.
type Network struct {
	cfg Config

	mu    sync.Mutex
	stats Stats
}

// New returns a Network injecting the faults cfg plans.
func New(cfg Config) *Network {
	return &Network{cfg: cfg}
}

// Stats returns a snapshot of the injected-fault counters.
func (n *Network) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// Dial establishes a TCP connection to addr within timeout and wraps
// it under the next connection's fault. It matches the cluster's
// DialFunc shape, so a node under test points its dial hook here. A
// planned refusal fails with ErrRefused.
func (n *Network) Dial(addr string, timeout time.Duration) (net.Conn, error) {
	n.mu.Lock()
	k := n.stats.Conns
	n.stats.Conns++
	n.mu.Unlock()
	var f Fault
	if n.cfg.Plan != nil {
		f = n.cfg.Plan(k)
	}
	if f.Refuse {
		n.mu.Lock()
		n.stats.Refused++
		n.mu.Unlock()
		return nil, fmt.Errorf("faultnet: dial %s: %w", addr, ErrRefused)
	}
	raw, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	c := &Conn{Conn: raw, net: n}
	budget := int64(f.ResetAfter)
	if budget <= 0 {
		budget = 1 << 62
	}
	c.budget.Store(budget)
	return c, nil
}

// Conn is one connection under a planned fault. It embeds the
// underlying net.Conn, so deadlines and addresses pass through.
type Conn struct {
	net.Conn
	net    *Network
	budget atomic.Int64 // remaining bytes before the planned reset
	reset  atomic.Bool
}

// Read reads from the underlying connection, at most the bytes the
// reset budget has left; the read that spends the budget resets the
// connection.
func (c *Conn) Read(p []byte) (int, error) {
	if c.reset.Load() {
		return 0, ErrInjected
	}
	n, err := c.Conn.Read(c.clip(p))
	return n, c.spend(n, err)
}

// Write writes at most the bytes the reset budget has left; the write
// that spends the budget delivers the bytes up to it and then resets
// the connection.
func (c *Conn) Write(p []byte) (int, error) {
	if c.reset.Load() {
		return 0, ErrInjected
	}
	n, err := c.Conn.Write(c.clip(p))
	if err == nil && n < len(p) {
		err = ErrInjected
	}
	return n, c.spend(n, err)
}

// clip truncates p to the bytes the reset budget has left.
func (c *Conn) clip(p []byte) []byte {
	return p[:max(0, min(int64(len(p)), c.budget.Load()))]
}

// spend counts n bytes against the reset budget and resets the
// connection the moment the budget is spent — even while an operation
// in the other direction is still waiting on it.
func (c *Conn) spend(n int, err error) error {
	if c.budget.Add(int64(-n)) <= 0 {
		return c.doReset()
	}
	return err
}

// doReset performs the planned reset exactly once: linger zero (so
// TCP peers observe an RST, not a FIN), close, count.
func (c *Conn) doReset() error {
	if c.reset.CompareAndSwap(false, true) {
		c.net.mu.Lock()
		c.net.stats.Resets++
		c.net.mu.Unlock()
		hardClose(c.Conn)
	}
	return ErrInjected
}

// hardClose closes a connection so a TCP peer sees an RST: linger is
// armed with a zero timeout first, which discards untransmitted data
// and aborts instead of the orderly FIN handshake.
func hardClose(conn net.Conn) {
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetLinger(0)
	}
	conn.Close()
}
