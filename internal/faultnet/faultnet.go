// Package faultnet is a deterministic, seeded chaos layer for the
// networked tiers: it wraps the connections it dials and injects
// latency, write-bandwidth caps, byte-offset connection resets and
// refused connections from a reproducible schedule. The cluster's
// self-healing machinery (internal/cluster retry, reconnect, and
// resubmit paths) is developed and regression-tested against this layer:
// the chaos conformance suite proves that under a seeded fault schedule
// the cluster still converges to estimates bit-identical to the
// in-process reference, with the budget ledger charged exactly once per
// sealed collection.
//
// Determinism is the point. Every wrapped connection is numbered in
// wrap order, and its fault schedule is either assigned explicitly
// (Config.Plan) or drawn from rng.Substream(Config.Seed, connNumber) —
// a pure function, so the k-th connection of a run always draws the
// same faults for the same seed. What stays nondeterministic is only
// the interleaving of goroutines, which is exactly the space a chaos
// test wants to explore while its fault schedule stays pinned.
//
// An injected reset is a real reset where the platform allows: the
// wrapper arms SO_LINGER with a zero timeout on TCP connections before
// closing, so the peer observes an RST (ECONNRESET), not a clean FIN —
// the difference between "the client finished" and "the client
// vanished mid-frame" that the cluster's readers must classify
// correctly. Both directions of a connection count against one byte
// budget, and an operation that would cross the budget is truncated to
// it first, so resets land mid-frame by construction.
package faultnet

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"shuffledp/internal/rng"
)

// ErrInjected is the error surfaced on the injecting side of a
// scheduled connection reset. It wraps syscall.ECONNRESET so the
// classification helpers that recognize genuine peer resets (for
// example pipeline.Disconnected) treat an injected one identically.
var ErrInjected = fmt.Errorf("faultnet: injected connection reset: %w", syscall.ECONNRESET)

// ErrRefused is returned by Dial when the schedule refuses the
// connection. It wraps syscall.ECONNREFUSED for the same reason
// ErrInjected wraps ECONNRESET.
var ErrRefused = fmt.Errorf("faultnet: connection refused by schedule: %w", syscall.ECONNREFUSED)

// Fault is the schedule for one connection. The zero Fault injects
// nothing — the connection behaves exactly like the underlying one.
type Fault struct {
	// Refuse drops the connection at establishment: Dial returns
	// ErrRefused.
	Refuse bool
	// ResetAfter injects a hard reset once this many bytes have crossed
	// the connection, reads and writes combined (0 = never). The
	// operation that reaches the budget is truncated to it, so the
	// reset tears a frame mid-byte-stream.
	ResetAfter int
	// Latency is added before every Write, plus a uniform draw in
	// [0, Jitter) from the connection's schedule stream.
	Latency time.Duration
	// Jitter bounds the per-write random latency added on top of
	// Latency.
	Jitter time.Duration
	// BandwidthBps caps write throughput in bytes per second by
	// sleeping len/BandwidthBps per write (0 = unlimited).
	BandwidthBps int
}

// Config parameterizes a Network. When Plan is nil, each connection's
// Fault is drawn from rng.Substream(Seed, connNumber) using the
// probability and range fields below.
type Config struct {
	// Seed keys the per-connection schedule streams.
	Seed uint64
	// Plan, when non-nil, overrides the drawn schedule: it is called
	// once per wrapped connection with the connection's number (0, 1,
	// ... in wrap order) and returns its Fault verbatim. Deterministic
	// tests pin exact faults this way.
	Plan func(conn int) Fault
	// RefuseProb is the probability a connection is refused outright.
	RefuseProb float64
	// ResetProb is the probability a connection gets a reset budget.
	ResetProb float64
	// ResetAfterMin and ResetAfterMax bound the reset byte budget drawn
	// for a connection that the ResetProb coin selected (the draw is
	// uniform in [Min, Max]; Max <= Min pins the budget to Min).
	ResetAfterMin int
	// ResetAfterMax is the inclusive upper bound for the reset budget.
	ResetAfterMax int
	// Latency, Jitter, and BandwidthBps apply to every connection the
	// drawn schedule does not refuse, verbatim.
	Latency time.Duration
	// Jitter bounds the per-write random latency (see Fault.Jitter).
	Jitter time.Duration
	// BandwidthBps caps write throughput (see Fault.BandwidthBps).
	BandwidthBps int
}

// Stats counts the faults a Network actually injected — chaos tests
// assert on these so a schedule that silently stopped firing fails the
// test instead of quietly testing nothing.
type Stats struct {
	// Conns is the number of connections wrapped (schedules drawn).
	Conns int
	// Refused counts connections dropped at establishment.
	Refused int
	// Resets counts injected connection resets.
	Resets int
}

// Network draws fault schedules and wraps connections. One Network is
// one failure domain: its connection counter and stats are shared
// across everything it wraps. Safe for concurrent use.
type Network struct {
	cfg Config

	mu    sync.Mutex
	seq   int
	stats Stats
}

// New returns a Network drawing schedules from cfg.
func New(cfg Config) *Network {
	return &Network{cfg: cfg}
}

// Stats returns a snapshot of the injected-fault counters.
func (n *Network) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// next draws the schedule for the next connection and returns it with
// the stream that continues to drive that connection's jitter.
func (n *Network) next() (Fault, *rng.Rand) {
	n.mu.Lock()
	k := n.seq
	n.seq++
	n.stats.Conns++
	n.mu.Unlock()
	r := rng.Substream(n.cfg.Seed, uint64(k))
	if n.cfg.Plan != nil {
		return n.cfg.Plan(k), r
	}
	var f Fault
	// Fixed draw order keeps the stream stable across config changes
	// that only zero probabilities out.
	refuse := r.Float64()
	reset := r.Float64()
	span := 0
	if n.cfg.ResetAfterMax > n.cfg.ResetAfterMin {
		span = n.cfg.ResetAfterMax - n.cfg.ResetAfterMin
	}
	budget := n.cfg.ResetAfterMin
	if span > 0 {
		budget += r.Intn(span + 1)
	}
	if refuse < n.cfg.RefuseProb {
		f.Refuse = true
		return f, r
	}
	if reset < n.cfg.ResetProb {
		f.ResetAfter = budget
	}
	f.Latency = n.cfg.Latency
	f.Jitter = n.cfg.Jitter
	f.BandwidthBps = n.cfg.BandwidthBps
	return f, r
}

// Dial establishes a TCP connection to addr within timeout and wraps
// it under the next schedule. It matches the cluster's DialFunc shape,
// so a node under test points its dial hook here. A scheduled refusal
// fails with ErrRefused.
func (n *Network) Dial(addr string, timeout time.Duration) (net.Conn, error) {
	f, r := n.next()
	if f.Refuse {
		n.countRefusal()
		return nil, fmt.Errorf("faultnet: dial %s: %w", addr, ErrRefused)
	}
	raw, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return n.adopt(raw, f, r), nil
}

func (n *Network) countRefusal() {
	n.mu.Lock()
	n.stats.Refused++
	n.mu.Unlock()
}

func (n *Network) countReset() {
	n.mu.Lock()
	n.stats.Resets++
	n.mu.Unlock()
}

func (n *Network) adopt(raw net.Conn, f Fault, r *rng.Rand) net.Conn {
	c := &Conn{Conn: raw, net: n, fault: f, sched: r}
	if f.ResetAfter > 0 {
		c.budget.Store(int64(f.ResetAfter))
	} else {
		c.budget.Store(int64(1) << 62)
	}
	return c
}

// Conn is one connection under a fault schedule. It embeds the
// underlying net.Conn, so deadlines and addresses pass through.
type Conn struct {
	net.Conn
	net    *Network
	fault  Fault
	budget atomic.Int64 // remaining bytes before the scheduled reset
	reset  atomic.Bool

	schedMu sync.Mutex
	sched   *rng.Rand
}

// Read reads from the underlying connection, counting the bytes
// against the reset budget; a read that reaches the budget triggers
// the scheduled reset.
func (c *Conn) Read(p []byte) (int, error) {
	if err := c.gate(); err != nil {
		return 0, err
	}
	if rem := c.budget.Load(); rem < int64(len(p)) {
		p = p[:rem]
	}
	n, err := c.Conn.Read(p)
	c.budget.Add(int64(-n))
	return n, err
}

// Write applies the schedule's latency and bandwidth shaping, then
// writes, counting bytes against the reset budget; a write that
// reaches the budget delivers the bytes up to it and then resets.
func (c *Conn) Write(p []byte) (int, error) {
	if err := c.gate(); err != nil {
		return 0, err
	}
	c.shape(len(p))
	torn := false
	if rem := c.budget.Load(); rem < int64(len(p)) {
		p = p[:rem]
		torn = true
	}
	n, err := c.Conn.Write(p)
	c.budget.Add(int64(-n))
	if err != nil {
		return n, err
	}
	if torn {
		return n, c.doReset()
	}
	return n, nil
}

// gate fails the operation when the connection was already reset or
// its budget is spent (triggering the reset now).
func (c *Conn) gate() error {
	if c.reset.Load() {
		return ErrInjected
	}
	if c.budget.Load() <= 0 {
		return c.doReset()
	}
	return nil
}

// doReset performs the scheduled reset exactly once: linger zero (so
// TCP peers observe an RST, not a FIN), close, count.
func (c *Conn) doReset() error {
	if c.reset.CompareAndSwap(false, true) {
		c.net.countReset()
		hardClose(c.Conn)
	}
	return ErrInjected
}

// shape sleeps out the schedule's latency, jitter, and bandwidth cost
// for an n-byte write.
func (c *Conn) shape(n int) {
	d := c.fault.Latency
	if c.fault.Jitter > 0 {
		c.schedMu.Lock()
		d += time.Duration(c.sched.Uint64n(uint64(c.fault.Jitter)))
		c.schedMu.Unlock()
	}
	if c.fault.BandwidthBps > 0 {
		d += time.Duration(int64(n) * int64(time.Second) / int64(c.fault.BandwidthBps))
	}
	if d > 0 {
		time.Sleep(d)
	}
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
