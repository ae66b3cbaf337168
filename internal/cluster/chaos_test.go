package cluster_test

// Chaos conformance: the self-healing cluster must survive injected
// transport faults — mid-EOS connection resets, client disconnects,
// control-link resets — with NO manual intervention, and the final
// estimates must stay bit-identical to the in-process
// protocol.PEOS.Run reference while the privacy ledger is charged
// exactly once per sealed collection. Faults come from the
// deterministic internal/faultnet layer, so every failure here replays
// exactly. CI runs this file under -race.

import (
	"encoding/binary"
	"errors"
	"net"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"shuffledp/internal/ahe"
	"shuffledp/internal/budget"
	"shuffledp/internal/cluster"
	"shuffledp/internal/composition"
	"shuffledp/internal/faultnet"
	"shuffledp/internal/ldp"
	"shuffledp/internal/protocol"
	"shuffledp/internal/rng"
	"shuffledp/internal/transport"
)

// chaosDialTo routes dials to one address through a faultnet network
// and everything else over plain TCP, so a test can break exactly one
// link class (say, the peer mesh) while the rest of the cluster stays
// healthy.
func chaosDialTo(n *faultnet.Network, addr string) cluster.DialFunc {
	return func(target string, timeout time.Duration) (net.Conn, error) {
		if target == addr {
			return n.Dial(target, timeout)
		}
		return net.DialTimeout("tcp", target, timeout)
	}
}

// tearsFirstFrame fails the test unless a client link reset after
// budget bytes lands inside the payload of the link's first shares
// frame to a plain holder — past the 9-byte hello and the frame's
// 24-byte head, short of the last of its n words — so the replay must
// resend a frame the shuffler saw part of.
func tearsFirstFrame(t *testing.T, budget, n int) {
	t.Helper()
	const hello, head = 9, 24
	if budget <= hello+head || budget >= hello+head+8*n {
		t.Fatalf("a reset after %d bytes misses the first %d-user frame's payload (bytes %d..%d)", budget, n, hello+head, hello+head+8*n)
	}
}

func testLedger(t *testing.T) *budget.Ledger {
	t.Helper()
	l, err := budget.NewLedger(
		composition.Guarantee{Eps: 10, Delta: 1e-8},
		composition.Guarantee{Eps: 1, Delta: 1e-9},
	)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// epochsPaid is how many collections a testLedger has paid for: the k
// at which a twin testLedger, paid for k collections, has spent exactly
// what l has. Spent grows with every collection paid, so k is unique;
// -1 means no count the total admits matches. (Spent over the
// per-epoch eps is no count: exact composition spends less than k of
// them by however much delta room the total leaves.)
func epochsPaid(t *testing.T, l *budget.Ledger) int {
	t.Helper()
	twin, spent := testLedger(t), l.Spent()
	for k := 0; ; k++ {
		if twin.Spent() == spent {
			return k
		}
		if twin.PayThrough(k) != nil {
			return -1
		}
	}
}

// The acceptance scenario: a fault plan resets the first
// peer-mesh connection mid-EOS (the first oblivious-shuffle vector is
// ~290 bytes; the reset tears it at byte 180) and resets the client's
// first connection to shuffler 0 inside its first shares frame (forcing
// a reconnect and a full resubmit, deduplicated by nonce). The cluster
// must complete both collections without intervention, bit-identical
// to protocol.PEOS.Run, with the ledger charged exactly once per
// collection.
func TestChaosClusterSelfHealsBitIdentical(t *testing.T) {
	const (
		r           = 2
		n           = 30
		d           = 8
		nr          = 4
		fakeSeed    = 201
		clientReset = 150
	)
	priv := sharedKey(t)
	fo := ldp.NewGRR(d, 2)

	// Conn 0 of each plan is the first dial through that network:
	// the mesh's attempt-0 connection, the client's initial connection.
	meshChaos := faultnet.New(faultnet.Config{Plan: func(conn int) faultnet.Fault {
		if conn == 0 {
			return faultnet.Fault{ResetAfter: 180}
		}
		return faultnet.Fault{}
	}})
	tearsFirstFrame(t, clientReset, n)
	clientChaos := faultnet.New(faultnet.Config{Plan: func(conn int) faultnet.Fault {
		if conn == 0 {
			return faultnet.Fault{ResetAfter: clientReset}
		}
		return faultnet.Fault{}
	}})

	ledger := testLedger(t)
	h := startCluster(t, r, nr, fo, priv, fakeSeed, func(cfg *cluster.AnalyzerConfig) {
		cfg.Ledger = ledger
	}, func(j int, cfg *cluster.ShufflerConfig) {
		if j == 1 {
			// Shuffler 1 dials shuffler 0's mesh; only that link chaoses.
			cfg.Dial = chaosDialTo(meshChaos, cfg.Topology.Shufflers[0])
		}
	})
	cl, err := cluster.NewClient(cluster.ClientConfig{
		Topology: h.topo,
		FO:       fo,
		Pub:      ahe.PublicKey(priv),
		Source:   rng.New(3),
		Dial:     chaosDialTo(clientChaos, h.topo.Shufflers[0]),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	p, err := protocol.NewPEOS(fo, r, nr, priv, rng.New(99))
	if err != nil {
		t.Fatal(err)
	}
	p.FakeSource = refFakeSource(fakeSeed, r)

	var allRef []ldp.Report
	attempts := make([]int, 2)
	for round := 0; round < 2; round++ {
		values := synthValues(n, d, 210+uint64(round))
		cl.SetCollection(round)
		if err := cl.SendValues(0, values, rng.New(220+uint64(round))); err != nil {
			t.Fatalf("round %d send: %v", round, err)
		}
		if err := cl.Flush(); err != nil {
			t.Fatalf("round %d flush: %v", round, err)
		}
		col, err := h.analyzer.Collect(n)
		if err != nil {
			t.Fatalf("round %d never healed: %v", round, err)
		}
		attempts[round] = col.Attempts
		ref, err := p.Run(values, rng.New(220+uint64(round)))
		if err != nil {
			t.Fatal(err)
		}
		if !estimatesEqual(col.Estimates, ref.Estimates) {
			t.Fatalf("round %d estimates diverged under chaos:\n net %v\n ref %v", round, col.Estimates, ref.Estimates)
		}
		allRef = append(allRef, ref.Reports...)
	}

	wantCum := protocol.Estimate(fo, allRef, 2*n, 2*nr)
	if !estimatesEqual(h.analyzer.Estimates(), wantCum) {
		t.Fatalf("cumulative estimate diverged under chaos:\n net %v\n ref %v", h.analyzer.Estimates(), wantCum)
	}
	if attempts[0] < 2 {
		t.Fatalf("collection 0 took %d attempt(s); the planned mesh reset should have forced a retry", attempts[0])
	}
	if got := meshChaos.Stats().Resets; got < 1 {
		t.Fatalf("mesh chaos injected %d resets, want >= 1", got)
	}
	if got := clientChaos.Stats().Resets; got < 1 {
		t.Fatalf("client chaos injected %d resets, want >= 1", got)
	}
	if cl.Reconnects() < 1 {
		t.Fatal("client never reconnected; the planned reset should have forced a resubmit")
	}
	if got := epochsPaid(t, ledger); got != 2 {
		t.Fatalf("ledger charged %d epochs for 2 sealed collections (retries must not double-charge)", got)
	}
}

// A reset on the shuffler->analyzer control link mid-round must heal
// end to end: the shuffler redials the analyzer, the analyzer swaps
// the fresh link in by hello index and retries the round on it.
func TestChaosControlLinkResetReconnects(t *testing.T) {
	const (
		r        = 2
		n        = 24
		d        = 8
		nr       = 4
		fakeSeed = 231
	)
	priv := sharedKey(t)
	fo := ldp.NewGRR(d, 2)

	// Budget 45 on shuffler 0's first control connection: the hello
	// (~9B) and the first seal (~20B) pass, then the round's vector
	// forward (~300B) tears mid-frame.
	ctrlChaos := faultnet.New(faultnet.Config{Plan: func(conn int) faultnet.Fault {
		if conn == 0 {
			return faultnet.Fault{ResetAfter: 45}
		}
		return faultnet.Fault{}
	}})

	h := startCluster(t, r, nr, fo, priv, fakeSeed, nil, func(j int, cfg *cluster.ShufflerConfig) {
		if j == 0 {
			cfg.Dial = chaosDialTo(ctrlChaos, cfg.Topology.Analyzers[0])
		}
	})
	cl, err := cluster.NewClient(cluster.ClientConfig{Topology: h.topo, FO: fo, Pub: ahe.PublicKey(priv), Source: rng.New(3)})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	values := synthValues(n, d, 232)
	if err := cl.SendValues(0, values, rng.New(233)); err != nil {
		t.Fatal(err)
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	col, err := h.analyzer.Collect(n)
	if err != nil {
		t.Fatalf("round never healed from the control-link reset: %v", err)
	}
	if col.Attempts < 2 {
		t.Fatalf("round took %d attempt(s); the control-link reset should have forced a retry", col.Attempts)
	}
	if got := ctrlChaos.Stats().Resets; got < 1 {
		t.Fatalf("control chaos injected %d resets, want >= 1", got)
	}

	p, err := protocol.NewPEOS(fo, r, nr, priv, rng.New(99))
	if err != nil {
		t.Fatal(err)
	}
	p.FakeSource = refFakeSource(fakeSeed, r)
	ref, err := p.Run(values, rng.New(233))
	if err != nil {
		t.Fatal(err)
	}
	if !estimatesEqual(col.Estimates, ref.Estimates) {
		t.Fatal("estimates diverged across the control-link reset")
	}
}

// retagFirstVector is a shuffler's analyzer link whose first vector
// frame goes out under tag 99: the analyzer reads a frame no vector
// link carries and closes the link.
type retagFirstVector struct {
	net.Conn
	done *atomic.Bool
}

func (c retagFirstVector) Write(p []byte) (int, error) {
	// A frame header is one 8-byte write: [length u32][tag u32].
	if len(p) == 8 {
		if tag := binary.BigEndian.Uint32(p[4:]); (tag == 7 /* vector */ || tag == 8 /* encVector */) && c.done.CompareAndSwap(false, true) {
			q := append([]byte(nil), p...)
			binary.BigEndian.PutUint32(q[4:], 99)
			return c.Conn.Write(q)
		}
	}
	return c.Conn.Write(p)
}

// An analyzer that closes a healthy shuffler's link — here because the
// link brought a frame that is not a vector — says no goodbye on it, so
// the shuffler redials instead of leaving the cluster, and the round
// heals on its second attempt: bit-identical to protocol.PEOS.Run,
// charged once, and every Run returns nil once the analyzer closes.
func TestChaosLinkClosedWithoutGoodbyeHeals(t *testing.T) {
	const (
		r        = 2
		n        = 24
		d        = 8
		nr       = 4
		fakeSeed = 271
	)
	priv := sharedKey(t)
	fo := ldp.NewGRR(d, 2)
	var retagged atomic.Bool
	ledger := testLedger(t)
	h := startCluster(t, r, nr, fo, priv, fakeSeed, func(cfg *cluster.AnalyzerConfig) {
		cfg.Ledger = ledger
		// A shuffler that never comes back fails the round in seconds.
		cfg.CollectTimeout = 2 * time.Second
	}, func(j int, cfg *cluster.ShufflerConfig) {
		if j == 0 {
			analyzer := cfg.Topology.Analyzers[0]
			cfg.Dial = func(addr string, timeout time.Duration) (net.Conn, error) {
				conn, err := net.DialTimeout("tcp", addr, timeout)
				if err == nil && addr == analyzer {
					conn = retagFirstVector{Conn: conn, done: &retagged}
				}
				return conn, err
			}
		}
	})
	cl, err := cluster.NewClient(cluster.ClientConfig{Topology: h.topo, FO: fo, Pub: ahe.PublicKey(priv), Source: rng.New(3)})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	values := synthValues(n, d, 272)
	if err := cl.SendValues(0, values, rng.New(273)); err != nil {
		t.Fatal(err)
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	col, err := h.analyzer.Collect(n)
	if err != nil {
		t.Fatalf("the round never healed from the closed link: %v", err)
	}
	if !retagged.Load() {
		t.Fatal("shuffler 0 never sent a vector to retag")
	}
	if col.Attempts != 2 {
		t.Fatalf("round took %d attempt(s), want 2: the retagged vector fails the first", col.Attempts)
	}
	p, err := protocol.NewPEOS(fo, r, nr, priv, rng.New(99))
	if err != nil {
		t.Fatal(err)
	}
	p.FakeSource = refFakeSource(fakeSeed, r)
	ref, err := p.Run(values, rng.New(273))
	if err != nil {
		t.Fatal(err)
	}
	if !estimatesEqual(col.Estimates, ref.Estimates) {
		t.Fatalf("estimates diverged across the closed link:\n net %v\n ref %v", col.Estimates, ref.Estimates)
	}
	if got := epochsPaid(t, ledger); got != 1 {
		t.Fatalf("the healed round charged the ledger %d times, want exactly 1", got)
	}
	h.analyzer.Close()
	for j, errc := range h.runErr {
		select {
		case err := <-errc:
			if err != nil {
				t.Fatalf("shuffler %d's Run returned %v after the analyzer closed", j, err)
			}
		case <-time.After(testTimeout):
			t.Fatalf("shuffler %d's Run outlived the analyzer", j)
		}
	}
}

// A connection that sends no hello must be dropped at the node's hello
// timeout — it can neither hold a handshake goroutine nor pin the
// node's teardown — and the cluster must keep serving around it.
func TestChaosSilentConnDroppedAtHelloTimeout(t *testing.T) {
	const (
		r        = 2
		n        = 20
		d        = 8
		nr       = 2
		fakeSeed = 241
	)
	priv := sharedKey(t)
	fo := ldp.NewGRR(d, 2)
	h := startCluster(t, r, nr, fo, priv, fakeSeed, func(cfg *cluster.AnalyzerConfig) {
		cfg.SetHelloTimeout(100 * time.Millisecond)
	}, func(_ int, cfg *cluster.ShufflerConfig) {
		cfg.SetHelloTimeout(100 * time.Millisecond)
	})

	for name, addr := range map[string]string{"shuffler": h.topo.Shufflers[0], "analyzer": h.topo.Analyzers[0]} {
		silent, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		// Say nothing. The node must close the connection at its hello
		// timeout (~100ms), long before our own 5s read deadline — if
		// our deadline fires instead, the silent connection was never
		// dropped.
		silent.SetReadDeadline(time.Now().Add(5 * time.Second))
		_, err = silent.Read(make([]byte, 1))
		silent.Close()
		if err == nil {
			t.Fatalf("%s answered a silent connection", name)
		}
		if errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("%s never dropped the silent connection", name)
		}
	}

	// The nodes shrugged the silent connections off: a real round still
	// completes.
	cl, err := cluster.NewClient(cluster.ClientConfig{Topology: h.topo, FO: fo, Pub: ahe.PublicKey(priv), Source: rng.New(3)})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.SendValues(0, synthValues(n, d, 242), rng.New(243)); err != nil {
		t.Fatal(err)
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := h.analyzer.Collect(n); err != nil {
		t.Fatalf("round failed after silent connections: %v", err)
	}

	// And teardown completes promptly even with a fresh silent
	// connection open.
	lateSilent, err := net.Dial("tcp", h.topo.Shufflers[0])
	if err != nil {
		t.Fatal(err)
	}
	defer lateSilent.Close()
	h.analyzer.Close()
	for _, sh := range h.shufflers {
		sh.Close()
	}
	for j, errc := range h.runErr {
		select {
		case <-errc:
		case <-time.After(testTimeout):
			t.Fatalf("shuffler %d 's Run was pinned past teardown", j)
		}
	}
}

// Exactly-once sealing through a crash: a collection that needed a
// retry charges the durable ledger once and write-ahead logs once, so
// a crash-recovered analyzer reports the same single collection, the
// same single charge, and bit-identical estimates.
func TestChaosRetriedCollectionChargesAndSealsOnce(t *testing.T) {
	const (
		r        = 2
		n        = 24
		d        = 8
		nr       = 4
		fakeSeed = 251
	)
	priv := sharedKey(t)
	fo := ldp.NewGRR(d, 2)
	dir := t.TempDir()

	meshChaos := faultnet.New(faultnet.Config{Plan: func(conn int) faultnet.Fault {
		if conn == 0 {
			return faultnet.Fault{ResetAfter: 180}
		}
		return faultnet.Fault{}
	}})

	ledger := testLedger(t)
	h := startCluster(t, r, nr, fo, priv, fakeSeed, func(cfg *cluster.AnalyzerConfig) {
		cfg.Ledger = ledger
		cfg.DataDir = dir
	}, func(j int, cfg *cluster.ShufflerConfig) {
		if j == 1 {
			cfg.Dial = chaosDialTo(meshChaos, cfg.Topology.Shufflers[0])
		}
	})
	cl, err := cluster.NewClient(cluster.ClientConfig{Topology: h.topo, FO: fo, Pub: ahe.PublicKey(priv), Source: rng.New(3)})
	if err != nil {
		t.Fatal(err)
	}
	values := synthValues(n, d, 252)
	if err := cl.SendValues(0, values, rng.New(253)); err != nil {
		t.Fatal(err)
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	col, err := h.analyzer.Collect(n)
	if err != nil {
		t.Fatalf("round never healed: %v", err)
	}
	if col.Attempts < 2 {
		t.Fatalf("round took %d attempt(s); the planned mesh reset should have forced a retry", col.Attempts)
	}
	if got := epochsPaid(t, ledger); got != 1 {
		t.Fatalf("retried collection charged the ledger %d times, want exactly 1", got)
	}
	live := h.analyzer.Estimates()
	cl.Close()

	// Power cut; only the data directory survives. A fresh ledger
	// restores to exactly one charge — the WAL holds one seal, not one
	// per attempt.
	h.analyzer.Crash()
	for _, sh := range h.shufflers {
		sh.Close()
	}
	ledger2 := testLedger(t)
	topo2, lns2, aln2 := bindTopology(t, r)
	for _, ln := range lns2 {
		ln.Close()
	}
	rec, err := cluster.RecoverAnalyzer(cluster.AnalyzerConfig{
		Topology: topo2,
		Listener: aln2,
		FO:       fo,
		NR:       nr,
		Priv:     priv,
		Ledger:   ledger2,
		DataDir:  dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rec.Collections() != 1 {
		t.Fatalf("recovered %d collections, want 1", rec.Collections())
	}
	if got := epochsPaid(t, ledger2); got != 1 {
		t.Fatalf("recovered ledger shows %d charges, want exactly 1", got)
	}
	if !estimatesEqual(rec.Estimates(), live) {
		t.Fatal("recovered estimates diverged from the live run")
	}
}

// A Collect that fails after paying, then runs again for the same
// collection id, pays once: the payment is per collection id, not per
// Collect call. The first call uses up its six attempts on the planned
// resets of the first six mesh connections; the second completes the
// round.
func TestFailedCollectRepeatedPaysOnce(t *testing.T) {
	const (
		r        = 2
		n        = 24
		d        = 8
		nr       = 4
		fakeSeed = 251
	)
	priv := sharedKey(t)
	fo := ldp.NewGRR(d, 2)
	meshChaos := faultnet.New(faultnet.Config{Plan: func(conn int) faultnet.Fault {
		if conn < 6 {
			return faultnet.Fault{ResetAfter: 180}
		}
		return faultnet.Fault{}
	}})
	ledger := testLedger(t)
	h := startCluster(t, r, nr, fo, priv, fakeSeed, func(cfg *cluster.AnalyzerConfig) {
		cfg.Ledger = ledger
	}, func(j int, cfg *cluster.ShufflerConfig) {
		if j == 1 {
			cfg.Dial = chaosDialTo(meshChaos, cfg.Topology.Shufflers[0])
		}
	})
	defer h.analyzer.Close()
	cl, err := cluster.NewClient(cluster.ClientConfig{Topology: h.topo, FO: fo, Pub: ahe.PublicKey(priv), Source: rng.New(3)})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.SendValues(0, synthValues(n, d, 252), rng.New(253)); err != nil {
		t.Fatal(err)
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := h.analyzer.Collect(n); err == nil {
		t.Fatal("the single-shot round survived the planned mesh reset")
	}
	if got := epochsPaid(t, ledger); got != 1 {
		t.Fatalf("the failed round paid for %d collections, want 1", got)
	}
	if _, err := h.analyzer.Collect(n); err != nil {
		t.Fatalf("the repeated round failed: %v", err)
	}
	if h.analyzer.Collections() != 1 {
		t.Fatalf("%d collections sealed, want 1", h.analyzer.Collections())
	}
	if got := epochsPaid(t, ledger); got != 1 {
		t.Fatalf("a failed and a repeated Collect of collection 0 paid for %d collections, want 1", got)
	}
}

// A flooding client replaying the SAME frame — the same users under the
// same nonces — over and over must be absorbed by the dedup path without
// counting against the buffer cap — resubmits are free — while the round
// still seals.
func TestChaosResubmitsDoNotCountAgainstCap(t *testing.T) {
	const (
		r        = 2
		n        = 20
		d        = 8
		nr       = 2
		fakeSeed = 261
	)
	priv := sharedKey(t)
	fo := ldp.NewGRR(d, 2)
	h := startCluster(t, r, nr, fo, priv, fakeSeed, nil, func(_ int, cfg *cluster.ShufflerConfig) {
		cfg.SetMaxBuffered(n + 2) // one column and the replayed frame, exactly
	})
	// A raw client that sends the same two-user frame 50 times: two
	// stored shares, 49 idempotent resubmits, zero cap pressure.
	raw, err := net.Dial("tcp", h.topo.Shufflers[0])
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if err := transport.WriteTaggedFrame(raw, 3 /* clientHello */, []byte{0}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		// Collection 99 (never sealed; parks in the buffer), users 5 and 6
		// under nonces 7 and 8.
		if err := cluster.WriteSharesFrame(raw, cluster.TagShares, 99, 5, 7, make([]byte, 16)); err != nil {
			t.Fatalf("resubmit %d refused: %v", i, err)
		}
	}

	cl, err := cluster.NewClient(cluster.ClientConfig{Topology: h.topo, FO: fo, Pub: ahe.PublicKey(priv), Source: rng.New(3)})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.SendValues(0, synthValues(n, d, 262), rng.New(263)); err != nil {
		t.Fatal(err)
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := h.analyzer.Collect(n); err != nil {
		t.Fatalf("round failed under resubmit pressure: %v", err)
	}
}

// muteAfterHello is a mesh connection whose peer hello (the 17 bytes of
// one tagged frame) goes through, whose every later write is swallowed
// and whose Close is held back: the peer it dialed sees a shuffler that
// joined the attempt and then went silent mid-phase, with the
// connection still up. The test closes the real connection.
type muteAfterHello struct {
	net.Conn
	passed int
}

func (c *muteAfterHello) Close() error { return nil }

func (c *muteAfterHello) Write(p []byte) (int, error) {
	if c.passed >= 17 {
		return len(p), nil
	}
	n, err := c.Conn.Write(p)
	c.passed += n
	return n, err
}

// A mesh peer that completes its hello and then says nothing must fail
// the attempt at the shuffler waiting on it, with the cause, inside
// SealTimeout: every message is one frame read under one absolute
// deadline, and the engine receives at most one message per peer per
// phase, so nothing needs a per-phase deadline on top. The collection
// then seals on a healthy mesh, bit-identical to protocol.PEOS.Run.
func TestChaosSilentMeshPeerFailsInsideSealTimeout(t *testing.T) {
	const (
		r           = 2
		n           = 24
		d           = 8
		nr          = 4
		fakeSeed    = 261
		sealTimeout = 400 * time.Millisecond
	)
	priv := sharedKey(t)
	fo := ldp.NewGRR(d, 2)
	var meshDials atomic.Int32
	h := startCluster(t, r, nr, fo, priv, fakeSeed, nil, func(j int, cfg *cluster.ShufflerConfig) {
		cfg.SealTimeout = sealTimeout
		if j == 1 {
			// Shuffler 1 dials shuffler 0's mesh; its first six
			// connections there go mute after the hello.
			mesh := cfg.Topology.Shufflers[0]
			cfg.Dial = func(addr string, timeout time.Duration) (net.Conn, error) {
				conn, err := net.DialTimeout("tcp", addr, timeout)
				if err == nil && addr == mesh && meshDials.Add(1) <= 6 {
					raw := conn
					t.Cleanup(func() { raw.Close() })
					conn = &muteAfterHello{Conn: raw}
				}
				return conn, err
			}
		}
	})
	cl, err := cluster.NewClient(cluster.ClientConfig{Topology: h.topo, FO: fo, Pub: ahe.PublicKey(priv), Source: rng.New(3)})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	values := synthValues(n, d, 262)
	if err := cl.SendValues(0, values, rng.New(263)); err != nil {
		t.Fatal(err)
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}

	// The first Collect runs all six of its attempts on mute meshes.
	start := time.Now()
	_, err = h.analyzer.Collect(n)
	took := time.Since(start)
	if err == nil || !strings.Contains(err.Error(), "shuffler 0 failed") || !strings.Contains(err.Error(), "timeout") {
		t.Fatalf("Collect over a mute mesh peer: %v, want shuffler 0's read timeout as the cause", err)
	}
	if took < sealTimeout/2 || took > testTimeout/2 {
		t.Fatalf("the attempt failed after %v; SealTimeout is %v and CollectTimeout %v", took, sealTimeout, testTimeout)
	}

	col, err := h.analyzer.Collect(n)
	if err != nil {
		t.Fatalf("the collection never sealed on the healthy mesh: %v", err)
	}
	p, err := protocol.NewPEOS(fo, r, nr, priv, rng.New(99))
	if err != nil {
		t.Fatal(err)
	}
	p.FakeSource = refFakeSource(fakeSeed, r)
	ref, err := p.Run(values, rng.New(263))
	if err != nil {
		t.Fatal(err)
	}
	if !estimatesEqual(col.Estimates, ref.Estimates) {
		t.Fatalf("estimates diverged after the mute attempt:\n net %v\n ref %v", col.Estimates, ref.Estimates)
	}
}
