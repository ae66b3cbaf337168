// Package cluster runs the PEOS security tier (§VI-A3, Algorithm 1)
// as real networked roles — the deployable face of the protocol that
// internal/protocol simulates in process. One collection round spans
// R+1 processes plus the reporting clients:
//
//	client    randomize value -> encode to a 64-bit word -> additively
//	          secret-share into R shares -> one plain share to each of
//	          shufflers 0..R-2, the last share AHE-encrypted under the
//	          analyzer's key to shuffler R-1
//	shuffler  collect its share column, append its own share of every
//	          joint fake report, run the encrypted oblivious shuffle
//	          with its peers (oblivious.RunParty over the TCP mesh),
//	          forward the resulting vector to the analyzer
//	analyzer  combine the R vectors, decrypt the ciphertext column with
//	          the AHE private key across every core of its one node
//	          (§VII-D's parallel decryption), decode, aggregate,
//	          estimate — and, when durable, seal each collection with
//	          one checkpoint of the cumulative counts, so a crashed
//	          analyzer recovers bit-identically (the streaming
//	          service's store, DESIGN.md §8/§9); the decoded words
//	          never reach the disk
//
// Trust boundaries are real process boundaries: a shuffler only ever
// holds one share column (its own fakes included), so no coalition of
// fewer than all R shufflers learns a report; the analyzer receives
// only post-shuffle vectors, so it cannot link a report to a client;
// and the encrypted column keeps even an all-shuffler coalition blind
// (§VI-A2). The estimates are bit-identical to protocol.PEOS.Run for
// matching seeds — the cross-conformance tests and examples/peos_cluster
// assert it — because the estimator (protocol.Estimate) consumes an
// order-independent integer statistic of the same report multiset.
//
// Collections are the continual-observation unit: the analyzer drives
// one Collect per round, charges its budget.Ledger per collection, and
// accumulates support counts across rounds exactly (integers merge
// bit-identically in any order).
package cluster

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"time"

	"shuffledp/internal/ahe"
)

// Topology names the cluster's listen addresses: Shufflers[j] is
// shuffler j's address (R = len(Shufflers)) and Analyzers[0] the
// analyzer's. Every role is configured with the same Topology, agreed
// out of band like the protocol parameters themselves.
type Topology struct {
	// Shufflers holds the shuffler listen addresses, indexed by role.
	Shufflers []string
	// Analyzers holds the analyzer's listen address, its one element.
	Analyzers []string
}

// R returns the shuffler count.
func (t Topology) R() int { return len(t.Shufflers) }

// validate refuses a topology that does not name at least 2 shufflers
// and exactly one analyzer, or that leaves any address empty: an empty
// address would bind every interface on a port no peer can dial.
func (t Topology) validate() error {
	if len(t.Shufflers) < 2 {
		return errors.New("cluster: PEOS needs at least 2 shufflers")
	}
	if len(t.Analyzers) != 1 {
		return fmt.Errorf("cluster: topology lists %d analyzer addresses, want exactly 1", len(t.Analyzers))
	}
	for j, addr := range t.Shufflers {
		if addr == "" {
			return fmt.Errorf("cluster: shuffler %d has an empty address", j)
		}
	}
	if t.Analyzers[0] == "" {
		return errors.New("cluster: the analyzer has an empty address")
	}
	return nil
}

// defaultDialTimeout bounds how long a role retries dialing a peer
// that has not started listening yet (cluster processes start in no
// particular order).
const defaultDialTimeout = 10 * time.Second

// requireWordPlaintext rejects an AHE key whose plaintext space is not
// Z_{2^64}, the ring every PEOS share lives in: a narrower key would
// silently encrypt shares reduced mod 2^l and poison the round. Every
// role runs it on the key it is handed.
func requireWordPlaintext(pub ahe.PublicKey) error {
	if pub.PlaintextBits() != 64 {
		return fmt.Errorf("cluster: PEOS requires a Z_{2^64} AHE plaintext space, got 2^%d", pub.PlaintextBits())
	}
	return nil
}

// defaultHelloTimeout bounds the wait for an inbound connection's
// hello frame: a connection that sends nothing identifies as nothing
// and is dropped, so it can neither pin its handshake goroutine nor
// survive the node's teardown unnoticed.
const defaultHelloTimeout = 30 * time.Second

// DialFunc establishes one connection attempt to addr within timeout.
// Nodes and clients accept one as a hook so tests can interpose a
// chaos layer (faultnet.Network.Dial has this shape); nil means plain
// net.DialTimeout over TCP.
type DialFunc func(addr string, timeout time.Duration) (net.Conn, error)

// netDial is the default DialFunc.
func netDial(addr string, timeout time.Duration) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, timeout)
}

// The one retry schedule. Collect runs a round at most retryAttempts
// times, a client heals a shuffler connection in at most
// retryAttempts−1 redials, and every dial retries until its timeout;
// each sleeps backoff(k) before retry k.
const (
	retryAttempts = 6
	baseBackoff   = 25 * time.Millisecond
	maxBackoff    = 250 * time.Millisecond
)

// backoff returns the sleep before retry k (0-based): baseBackoff
// doubled k times, capped at maxBackoff, and jittered to a uniform draw
// in [d/2, d) so simultaneous retriers decorrelate. The draw is
// math/rand/v2 (not the repo's seeded rng): backoff spacing never needs
// reproducibility — nothing statistical consumes it.
func backoff(k int) time.Duration {
	d := baseBackoff
	for ; k > 0 && d < maxBackoff; k-- {
		d *= 2
	}
	d = min(d, maxBackoff)
	return d/2 + rand.N(d/2)
}

// dialRetry dials addr through dial (nil = TCP), retrying failed
// attempts on the backoff schedule until the overall timeout budget is
// spent or stop closes (nil = never) — roles of one cluster start
// concurrently and must tolerate peers that are not listening yet.
// Each attempt gets the remaining budget as its own timeout, so a
// blackholed peer cannot stall the loop past the deadline the way an
// untimed net.Dial could.
func dialRetry(dial DialFunc, addr string, timeout time.Duration, stop <-chan struct{}) (net.Conn, error) {
	if dial == nil {
		dial = netDial
	}
	deadline := time.Now().Add(timeout)
	for k := 0; ; k++ {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return nil, fmt.Errorf("cluster: dialing %s: timed out after %v", addr, timeout)
		}
		conn, err := dial(addr, remaining)
		if err == nil {
			return conn, nil
		}
		remaining = time.Until(deadline)
		if remaining <= 0 {
			return nil, fmt.Errorf("cluster: dialing %s: %w", addr, err)
		}
		select {
		case <-time.After(min(backoff(k), remaining)):
		case <-stop:
			return nil, fmt.Errorf("cluster: dialing %s: canceled", addr)
		}
	}
}

// gen identifies one collection attempt: the analyzer stamps every
// seal, abort, vector, and peer hello with the (collection, attempt)
// pair, so a connection or frame left over from an aborted round is
// recognizably stale instead of corrupting its successor. Attempt
// numbers increase monotonically across the analyzer's lifetime (not
// per collection), so a generation never repeats.
type gen struct {
	col uint32
	att uint32
}

// less orders generations: collection first, then attempt.
func (g gen) less(o gen) bool {
	return g.col < o.col || (g.col == o.col && g.att < o.att)
}

// listenOrUse binds the configured address unless the caller already
// bound a listener (tests and examples bind first to learn the port).
func listenOrUse(ln net.Listener, addr string) (net.Listener, error) {
	if ln != nil {
		return ln, nil
	}
	return net.Listen("tcp", addr)
}
