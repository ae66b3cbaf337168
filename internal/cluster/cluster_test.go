package cluster_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"shuffledp/internal/ahe"
	"shuffledp/internal/cluster"
	"shuffledp/internal/ldp"
	"shuffledp/internal/protocol"
	"shuffledp/internal/rng"
	"shuffledp/internal/secretshare"
	"shuffledp/internal/store"
	"shuffledp/internal/transport"
)

// testTimeout bounds every wait in the cluster tests so a protocol
// bug shows up as a failure, never a hung CI job.
const testTimeout = 30 * time.Second

// testKey is generated once; DGK keygen is probabilistic-prime search
// and need not be repeated per test.
var testKey *ahe.DGKPrivateKey

func sharedKey(t *testing.T) *ahe.DGKPrivateKey {
	t.Helper()
	if testKey == nil {
		priv, err := ahe.GenerateDGK(512, 64)
		if err != nil {
			t.Fatal(err)
		}
		testKey = priv
	}
	return testKey
}

// harness is an R-shuffler cluster on loopback listeners with an
// analyzer tier of one node or several: nodes[0] is the coordinator —
// analyzer names the same node — and nodes[1:] the reveal-worker shards.
type harness struct {
	topo      cluster.Topology
	nodes     []*cluster.Analyzer
	analyzer  *cluster.Analyzer
	shufflers []*cluster.Shuffler
	runErr    []chan error
}

// bindTopology reserves loopback listeners for r shufflers and
// `analyzers` analyzer shards so the topology carries real addresses
// before any node starts.
func bindTopology(t *testing.T, r, analyzers int) (cluster.Topology, []net.Listener, []net.Listener) {
	t.Helper()
	listen := func() net.Listener {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		return ln
	}
	topo := cluster.Topology{Shufflers: make([]string, r), Analyzers: make([]string, analyzers)}
	slns := make([]net.Listener, r)
	for j := range slns {
		slns[j] = listen()
		topo.Shufflers[j] = slns[j].Addr().String()
	}
	alns := make([]net.Listener, analyzers)
	for s := range alns {
		alns[s] = listen()
		topo.Analyzers[s] = alns[s].Addr().String()
	}
	return topo, slns, alns
}

// startShufflers builds and runs every shuffler of topo and closes them
// with the test. lns may be nil: each node then binds its topology
// address (a restarted tier). fakeSeed aligns each shuffler's fake
// shares with an in-process reference; mutate tweaks a config before
// its node starts.
func startShufflers(t *testing.T, topo cluster.Topology, lns []net.Listener, nr int, priv *ahe.DGKPrivateKey, fakeSeed uint64, mutate func(int, *cluster.ShufflerConfig)) ([]*cluster.Shuffler, []chan error) {
	t.Helper()
	var shufflers []*cluster.Shuffler
	var runErr []chan error
	for j := range topo.Shufflers {
		scfg := cluster.ShufflerConfig{
			Index:       j,
			Topology:    topo,
			NR:          nr,
			Pub:         ahe.PublicKey(priv),
			Source:      rng.Substream(fakeSeed, 1000+uint64(j)),
			FakeSource:  rng.Substream(fakeSeed, uint64(j)),
			SealTimeout: testTimeout,
		}
		if lns != nil {
			scfg.Listener = lns[j]
		}
		if mutate != nil {
			mutate(j, &scfg)
		}
		sh, err := cluster.NewShuffler(scfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sh.Close() })
		shufflers = append(shufflers, sh)
		errc := make(chan error, 1)
		runErr = append(runErr, errc)
		go func() { errc <- sh.Run() }()
	}
	return shufflers, runErr
}

// startShardedCluster builds and runs the full cluster: `analyzers`
// analyzer nodes (shard 0 coordinating) plus r shufflers.
func startShardedCluster(t *testing.T, r, analyzers, nr int, fo ldp.FrequencyOracle, priv *ahe.DGKPrivateKey, fakeSeed uint64, mutateA func(int, *cluster.AnalyzerConfig), mutateS func(int, *cluster.ShufflerConfig)) *harness {
	t.Helper()
	topo, slns, alns := bindTopology(t, r, analyzers)
	h := &harness{topo: topo}
	for s := 0; s < analyzers; s++ {
		acfg := cluster.AnalyzerConfig{
			Topology:       topo,
			Listener:       alns[s],
			FO:             fo,
			NR:             nr,
			Priv:           priv,
			Shard:          s,
			CollectTimeout: testTimeout,
		}
		if mutateA != nil {
			mutateA(s, &acfg)
		}
		node, err := cluster.NewAnalyzer(acfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { node.Close() })
		h.nodes = append(h.nodes, node)
	}
	h.analyzer = h.nodes[0]
	h.shufflers, h.runErr = startShufflers(t, topo, slns, nr, priv, fakeSeed, mutateS)
	return h
}

// startCluster is the single-analyzer cluster: startShardedCluster at
// analyzers = 1.
func startCluster(t *testing.T, r, nr int, fo ldp.FrequencyOracle, priv *ahe.DGKPrivateKey, fakeSeed uint64, mutateA func(*cluster.AnalyzerConfig), mutateS func(int, *cluster.ShufflerConfig)) *harness {
	t.Helper()
	return startShardedCluster(t, r, 1, nr, fo, priv, fakeSeed, func(_ int, cfg *cluster.AnalyzerConfig) {
		if mutateA != nil {
			mutateA(cfg)
		}
	}, mutateS)
}

// refFakeSource returns the FakeSource hook that mirrors the cluster
// harness's per-shuffler fake substreams into protocol.PEOS — the
// sources persist across Run calls, exactly like a long-lived node.
func refFakeSource(fakeSeed uint64, r int) func(j int) secretshare.Source {
	srcs := make([]secretshare.Source, r)
	for j := range srcs {
		srcs[j] = rng.Substream(fakeSeed, uint64(j))
	}
	return func(j int) secretshare.Source { return srcs[j] }
}

func synthValues(n, d int, seed uint64) []int {
	src := rng.New(seed)
	values := make([]int, n)
	for i := range values {
		values[i] = src.Intn(d)
	}
	return values
}

func estimatesEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// The networked cluster must reproduce protocol.PEOS.Run
// bit-identically for matched seeds — with r=3 the run exercises
// seekers, encrypted-column hops, and all three hide-and-seek rounds
// over real TCP connections.
func TestClusterMatchesInProcessPEOSThreeShufflers(t *testing.T) {
	const (
		r        = 3
		n        = 40
		d        = 8
		nr       = 6
		fakeSeed = 21
		ldpSeed  = 22
	)
	priv := sharedKey(t)
	fo := ldp.NewGRR(d, 2)
	values := synthValues(n, d, 23)

	h := startCluster(t, r, nr, fo, priv, fakeSeed, nil, nil)
	cl, err := cluster.NewClient(cluster.ClientConfig{Topology: h.topo, FO: fo, Pub: ahe.PublicKey(priv), Source: rng.New(3)})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.SendValues(0, values, rng.New(ldpSeed)); err != nil {
		t.Fatal(err)
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	col, err := h.analyzer.Collect(n)
	if err != nil {
		t.Fatal(err)
	}

	p, err := protocol.NewPEOS(fo, r, nr, priv, rng.New(99))
	if err != nil {
		t.Fatal(err)
	}
	p.FakeSource = refFakeSource(fakeSeed, r)
	ref, err := p.Run(values, rng.New(ldpSeed))
	if err != nil {
		t.Fatal(err)
	}
	if !estimatesEqual(col.Estimates, ref.Estimates) {
		t.Fatalf("cluster estimates diverged from PEOS.Run:\n net %v\n ref %v", col.Estimates, ref.Estimates)
	}
	if !estimatesEqual(h.analyzer.Estimates(), ref.Estimates) {
		t.Fatal("cumulative estimate diverged after one collection")
	}
}

// Two collection rounds accumulate exactly: the cumulative estimate
// equals the protocol-layer estimator over both rounds' reports.
func TestClusterMultiCollectionAccumulates(t *testing.T) {
	const (
		r        = 2
		n        = 30
		d        = 8
		nr       = 4
		fakeSeed = 31
	)
	priv := sharedKey(t)
	fo := ldp.NewGRR(d, 2)
	h := startCluster(t, r, nr, fo, priv, fakeSeed, nil, nil)
	cl, err := cluster.NewClient(cluster.ClientConfig{Topology: h.topo, FO: fo, Pub: ahe.PublicKey(priv), Source: rng.New(3)})
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
	for round := 0; round < 2; round++ {
		values := synthValues(n, d, 40+uint64(round))
		cl.SetCollection(round)
		if err := cl.SendValues(0, values, rng.New(50+uint64(round))); err != nil {
			t.Fatal(err)
		}
		if err := cl.Flush(); err != nil {
			t.Fatal(err)
		}
		col, err := h.analyzer.Collect(n)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		ref, err := p.Run(values, rng.New(50+uint64(round)))
		if err != nil {
			t.Fatal(err)
		}
		if !estimatesEqual(col.Estimates, ref.Estimates) {
			t.Fatalf("round %d estimates diverged", round)
		}
		allRef = append(allRef, ref.Reports...)
	}
	if h.analyzer.Collections() != 2 {
		t.Fatalf("want 2 collections, got %d", h.analyzer.Collections())
	}
	wantCum := protocol.Estimate(fo, allRef, 2*n, 2*nr)
	if !estimatesEqual(h.analyzer.Estimates(), wantCum) {
		t.Fatalf("cumulative estimate diverged:\n net %v\n ref %v", h.analyzer.Estimates(), wantCum)
	}
	reals, fakes := h.analyzer.Totals()
	if reals != 2*n || fakes != 2*nr {
		t.Fatalf("totals (%d, %d), want (%d, %d)", reals, fakes, 2*n, 2*nr)
	}
}

// Killing a shuffler mid-stream must fail the round with a clean
// protocol error at the analyzer and at the surviving shufflers —
// never a hang (the CI smoke job drives the same scenario through
// examples/peos_cluster).
func TestClusterKilledShufflerFailsCleanly(t *testing.T) {
	const (
		r  = 2
		n  = 30
		d  = 8
		nr = 4
	)
	priv := sharedKey(t)
	fo := ldp.NewGRR(d, 2)
	h := startCluster(t, r, nr, fo, priv, 61, nil, func(_ int, cfg *cluster.ShufflerConfig) {
		cfg.SealTimeout = 2 * time.Second
	})
	cl, err := cluster.NewClient(cluster.ClientConfig{Topology: h.topo, FO: fo, Pub: ahe.PublicKey(priv), Source: rng.New(3)})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// Half the round arrives, then shuffler 0 dies.
	if err := cl.SendValues(0, synthValues(n/2, d, 62), rng.New(63)); err != nil {
		t.Fatal(err)
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	h.shufflers[0].Close()

	errc := make(chan error, 1)
	go func() {
		_, err := h.analyzer.Collect(n)
		errc <- err
	}()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("Collect succeeded with a dead shuffler")
		}
	case <-time.After(testTimeout):
		t.Fatal("Collect hung on a dead shuffler")
	}
	// A failed round ends the run: tearing the analyzer down unblocks
	// every surviving shuffler (control-link EOF), so no Run hangs.
	h.analyzer.Close()
	for j, errcj := range h.runErr {
		select {
		case <-errcj:
		case <-time.After(testTimeout):
			t.Fatalf("shuffler %d 's Run hung after the kill", j)
		}
	}
}

// A client that stalls on a shuffler connection is dropped by the
// ingest idle deadline; a healthy client then completes the round.
func TestClusterShufflerDropsIdleClient(t *testing.T) {
	const (
		r  = 2
		n  = 20
		d  = 8
		nr = 2
	)
	priv := sharedKey(t)
	fo := ldp.NewGRR(d, 2)
	h := startCluster(t, r, nr, fo, priv, 71, nil, func(_ int, cfg *cluster.ShufflerConfig) {
		cfg.IdleTimeout = 100 * time.Millisecond
	})
	// The stalled client: hello, then silence, never closed.
	stalled, err := net.Dial("tcp", h.topo.Shufflers[0])
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	if err := transport.WriteTaggedFrame(stalled, 3 /* clientHello */, []byte{0}); err != nil {
		t.Fatal(err)
	}

	cl, err := cluster.NewClient(cluster.ClientConfig{Topology: h.topo, FO: fo, Pub: ahe.PublicKey(priv), Source: rng.New(3)})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.SendValues(0, synthValues(n, d, 72), rng.New(73)); err != nil {
		t.Fatal(err)
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := h.analyzer.Collect(n); err != nil {
		t.Fatalf("round failed despite healthy client: %v", err)
	}
}

func TestClusterConfigValidation(t *testing.T) {
	priv := sharedKey(t)
	fo := ldp.NewGRR(4, 1)
	goodTopo := cluster.Topology{Shufflers: []string{"a", "b"}, Analyzers: []string{"c"}}
	if _, err := cluster.NewShuffler(cluster.ShufflerConfig{Index: 5, Topology: goodTopo, Pub: ahe.PublicKey(priv), Source: rng.New(1)}); err == nil {
		t.Fatal("accepted out-of-range shuffler index")
	}
	if _, err := cluster.NewShuffler(cluster.ShufflerConfig{Index: 0, Topology: cluster.Topology{Shufflers: []string{"a"}, Analyzers: []string{"c"}}, Pub: ahe.PublicKey(priv), Source: rng.New(1)}); err == nil {
		t.Fatal("accepted a 1-shuffler cluster")
	}
	if _, err := cluster.NewAnalyzer(cluster.AnalyzerConfig{Topology: goodTopo, FO: fo, Priv: priv, NR: -1}); err == nil {
		t.Fatal("accepted negative fakes")
	}
	if _, err := cluster.RecoverAnalyzer(cluster.AnalyzerConfig{Topology: goodTopo, FO: fo, Priv: priv}); err == nil {
		t.Fatal("RecoverAnalyzer accepted an empty DataDir")
	}
}

// otherOracle is a FrequencyOracle without a word encoding: neither
// GRR nor local hashing.
type otherOracle struct{ ldp.FrequencyOracle }

func (otherOracle) Name() string { return "Other" }

// The client and the analyzer refuse, by name, an oracle the analyzer
// could not estimate for under uniform fakes — before anything is
// dialed, bound, written or charged. An oracle that got that far would
// panic in fold after the round had run — on a durable node with the
// ledger charged and the words sealed, so every RecoverAnalyzer would
// panic again replaying them. The last step hand-writes that directory
// and recovers over it. The Figure 3 baselines are not FrequencyOracles,
// so they cannot be configured at all; the refused row is an oracle the
// word encoder does not know.
func TestRolesRefuseOraclesWithoutFakeEstimator(t *testing.T) {
	priv := sharedKey(t)
	for _, tc := range []struct {
		fo ldp.FrequencyOracle
		ok bool
	}{
		{otherOracle{ldp.NewGRR(16, 2)}, false},
		{ldp.NewGRR(16, 2), true},
		{ldp.NewOLH(16, 2), true},
		{ldp.NewSOLH(16, 4, 2), true},
	} {
		t.Run(tc.fo.Name(), func(t *testing.T) {
			topo, slns, alns := bindTopology(t, 2, 1)
			for _, ln := range slns {
				ln.Close()
			}
			// An accepted oracle gets as far as dialing: the dialer hands
			// out a pipe whose far end is already closed.
			dialed := false
			cl, errClient := cluster.NewClient(cluster.ClientConfig{
				Topology: topo, FO: tc.fo, Pub: ahe.PublicKey(priv), Source: rng.New(1),
				Dial: func(string, time.Duration) (net.Conn, error) {
					dialed = true
					conn, peer := net.Pipe()
					peer.Close()
					return conn, nil
				},
			})
			if cl != nil {
				cl.Close()
			}
			ledger, dir := testLedger(t), t.TempDir()
			acfg := cluster.AnalyzerConfig{Topology: topo, FO: tc.fo, Priv: priv, NR: 2, Ledger: ledger, DataDir: dir}
			if tc.ok {
				acfg.Listener = alns[0]
			} // else alns[0] keeps the address: a bind attempt would fail differently
			a, errAnalyzer := cluster.NewAnalyzer(acfg)
			if a != nil {
				a.Close()
			}
			if tc.ok {
				if !dialed || errClient != nil {
					t.Errorf("client: %v, want it to dial its shufflers", errClient)
				}
				if errAnalyzer != nil {
					t.Errorf("analyzer: %v", errAnalyzer)
				}
				return
			}
			defer alns[0].Close()
			refused := func(role string, err error) {
				t.Helper()
				if err == nil || !strings.Contains(err.Error(), "oracle "+tc.fo.Name()+" ") {
					t.Errorf("%s: err = %v, want a refusal naming the oracle", role, err)
				}
			}
			refused("client", errClient)
			refused("analyzer", errAnalyzer)
			if dialed {
				t.Error("the refused client dialed a shuffler")
			}
			if left, err := os.ReadDir(dir); err != nil || len(left) != 0 {
				t.Errorf("the refused analyzer left %d entries in its data directory (%v)", len(left), err)
			}
			// A sealed collection of this oracle, as the parent's analyzer
			// left it on disk: words, commit, rotation marker.
			st, err := store.Create(dir, store.Meta{Oracle: tc.fo.Name(), Domain: tc.fo.Domain()}, store.SyncNone)
			if err != nil {
				t.Fatal(err)
			}
			if err := errors.Join(
				st.AppendReport(0, transport.EncodeUint64s([]uint64{0, 1, 2, 3, 4})),
				st.Commit(), st.Rotate(0, 1), st.Close(),
			); err != nil {
				t.Fatal(err)
			}
			acfg.Listener = alns[0] // nothing but the oracle stands between it and fold
			_, err = cluster.RecoverAnalyzer(acfg)
			refused("RecoverAnalyzer", err)
			if ledger.Epochs() != 0 {
				t.Errorf("refusals charged the ledger %d times", ledger.Epochs())
			}
		})
	}
}

// A shard is a stateless reveal worker: asking one to be durable, to
// charge a ledger, or to recover is refused with the reason, before it
// binds a port or opens a file.
func TestShardRefusesDurabilityByName(t *testing.T) {
	priv := sharedKey(t)
	fo := ldp.NewGRR(4, 1)
	topo := cluster.Topology{Shufflers: []string{"a", "b"}, Analyzers: []string{"c", "127.0.0.1:0"}}
	dir := t.TempDir()
	const want = "analyzer shard 1 is a stateless reveal worker"
	for name, cfg := range map[string]cluster.AnalyzerConfig{
		"DataDir": {Topology: topo, FO: fo, Priv: priv, Shard: 1, DataDir: dir},
		"Ledger":  {Topology: topo, FO: fo, Priv: priv, Shard: 1, Ledger: testLedger(t)},
	} {
		a, err := cluster.NewAnalyzer(cfg)
		if err == nil {
			a.Close()
		}
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("NewAnalyzer on a shard with a %s: %v, want %q", name, err, want)
		}
	}
	_, err := cluster.RecoverAnalyzer(cluster.AnalyzerConfig{Topology: topo, FO: fo, Priv: priv, Shard: 1, DataDir: dir})
	if err == nil || !strings.Contains(err.Error(), "analyzer shard 1 keeps no durable state") {
		t.Fatalf("RecoverAnalyzer on a shard: %v", err)
	}
	if left, err := os.ReadDir(dir); err != nil || len(left) != 0 {
		t.Fatalf("a refused shard left %d entries in its data directory (%v)", len(left), err)
	}
}

// PEOS shares live in Z_{2^64}: every role must refuse a key with a
// narrower plaintext space, with the same error. A client handed the
// wrong key file would otherwise encrypt shares reduced mod 2^l and
// silently poison the round — it must fail before it dials anyone.
func TestClusterRejectsNarrowPlaintextKey(t *testing.T) {
	key32, err := ahe.GenerateDGK(512, 32)
	if err != nil {
		t.Fatal(err)
	}
	fo := ldp.NewGRR(4, 1)
	topo := cluster.Topology{Shufflers: []string{"a", "b"}, Analyzers: []string{"c"}}
	const want = "PEOS requires a Z_{2^64} AHE plaintext space, got 2^32"
	_, err = cluster.NewShuffler(cluster.ShufflerConfig{Index: 0, Topology: topo, Pub: ahe.PublicKey(key32), Source: rng.New(1)})
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("shuffler: got %v, want %q", err, want)
	}
	_, err = cluster.NewAnalyzer(cluster.AnalyzerConfig{Topology: topo, FO: fo, Priv: key32})
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("analyzer: got %v, want %q", err, want)
	}
	_, err = cluster.NewClient(cluster.ClientConfig{
		Topology: topo, FO: fo, Pub: ahe.PublicKey(key32), Source: rng.New(1),
		Dial: func(addr string, _ time.Duration) (net.Conn, error) {
			t.Errorf("client dialed %s with a 32-bit plaintext key", addr)
			return nil, errors.New("unreachable")
		},
	})
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("client: got %v, want %q", err, want)
	}
}

// A fresh NewAnalyzer over a directory that already holds durable
// state must refuse and point at RecoverAnalyzer.
func TestAnalyzerRefusesExistingState(t *testing.T) {
	priv := sharedKey(t)
	fo := ldp.NewGRR(4, 1)
	dir := t.TempDir()
	topo, lns, alns := bindTopology(t, 2, 1)
	for _, ln := range lns {
		ln.Close()
	}
	a, err := cluster.NewAnalyzer(cluster.AnalyzerConfig{Topology: topo, Listener: alns[0], FO: fo, Priv: priv, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	a.Close()
	if _, err := cluster.NewAnalyzer(cluster.AnalyzerConfig{Topology: topo, FO: fo, Priv: priv, DataDir: dir}); err == nil ||
		!strings.Contains(err.Error(), "RecoverAnalyzer") {
		t.Fatalf("want an ErrExists error pointing at RecoverAnalyzer, got %v", err)
	}
}

// hostileClient dials a shuffler and says the client hello; the test
// then writes whatever frames it likes.
func hostileClient(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := cluster.WriteClientHello(conn); err != nil {
		t.Fatal(err)
	}
	return conn
}

// hangsUp fails the test unless the node's only answer on conn is to
// close it.
func hangsUp(t *testing.T, conn net.Conn, what string) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(testTimeout))
	if _, err := conn.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("%s: the shuffler kept the connection (read: %v)", what, err)
	}
}

// waitFor polls cond until it holds, failing the test after testTimeout.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(testTimeout); !cond(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("never happened: %s", what)
		}
	}
}

// A client flooding shares past the node's buffer cap is disconnected
// without taking the shuffler down. The cap counts a frame's fresh
// shares and takes the frame whole or not at all: one that would cross
// it is refused with its connection and leaves the cap unconsumed, so
// the shares that do fit still go in — and not one more.
func TestClusterShufflerCapsFloodingClient(t *testing.T) {
	const (
		r     = 2
		d     = 8
		nr    = 2
		limit = 25
	)
	priv := sharedKey(t)
	fo := ldp.NewGRR(d, 2)
	h := startCluster(t, r, nr, fo, priv, 91, nil, func(_ int, cfg *cluster.ShufflerConfig) {
		cfg.SetMaxBuffered(limit)
	})
	plain := h.shufflers[0]
	// Frames for a collection that will never seal, under distinct users
	// and nonces — a repeated (index, nonce) pair would be deduplicated as
	// a resubmit and never count against the cap.
	send := func(conn net.Conn, first uint32, nonce uint64, users int) {
		t.Helper()
		if err := cluster.WriteSharesFrame(conn, cluster.TagShares, 99, first, nonce, make([]byte, 8*users)); err != nil {
			t.Fatal(err)
		}
	}
	buffered := func(want int) func() bool {
		return func() bool { return plain.BufferedShares() == want }
	}
	flood := hostileClient(t, h.topo.Shufflers[0])
	send(flood, 0, 1000, 20)
	waitFor(t, "20 shares buffered", buffered(20))
	send(flood, 20, 2000, 10) // 20 + 10 > 25
	hangsUp(t, flood, "a frame crossing the cap")
	if got := plain.BufferedShares(); got != 20 {
		t.Fatalf("the refused frame left %d shares buffered, want 20", got)
	}
	more := hostileClient(t, h.topo.Shufflers[0])
	send(more, 20, 3000, 5) // 20 + 5 = 25: fills the cap exactly
	waitFor(t, "the cap filled exactly", buffered(limit))
	send(more, 25, 4000, 1)
	hangsUp(t, more, "a share past a full cap")
	if got := plain.BufferedShares(); got != limit {
		t.Fatalf("buffered %d shares past a cap of %d", got, limit)
	}

	// A client link states its frame bound too: SharesPerFrame shares
	// behind the 16-byte prefix, words at a plain holder and ciphertexts
	// at the encrypted one. A header announcing one byte more is refused
	// unread and costs its sender the connection, whatever the cap has
	// left.
	for j, elem := range []int{8, priv.CiphertextBytes()} {
		tag := cluster.TagShares
		if j == r-1 {
			tag = cluster.TagEncShares
		}
		conn := hostileClient(t, h.topo.Shufflers[j])
		var hdr [8]byte
		binary.BigEndian.PutUint32(hdr[:4], uint32(16+cluster.SharesPerFrame*elem+1))
		binary.BigEndian.PutUint32(hdr[4:], tag)
		if _, err := conn.Write(hdr[:]); err != nil {
			t.Fatal(err)
		}
		hangsUp(t, conn, fmt.Sprintf("shuffler %d, a header one byte over its bound", j))
	}
	// The nodes themselves must still be alive (Run has not returned).
	for j, errc := range h.runErr {
		select {
		case err := <-errc:
			t.Fatalf("shuffler %d died on a hostile client: %v", j, err)
		case <-time.After(100 * time.Millisecond):
		}
	}
}

// TestMalformedClientCiphertextIsConnectionScoped: nothing a client
// sends can fail the node. Each row is one hostile frame at the
// encrypted holder, refused at ingest for its own reason before any of
// it is buffered: five ciphertexts whose third is zero, ≥ n or a
// non-unit, or with a ragged tail; a user range that wraps past index
// 2^32−1; the retired per-report tags 4 and 5; a taken index under
// another nonce. Each costs its sender the connection and nothing
// else — the frames aimed at the honest collection's users 0..4 leave
// them free — and the collection then seals bit-identical to
// protocol.PEOS.Run from an honest client. (Buffered unvalidated, one
// bad ciphertext failed every attempt at seal time, and the honest
// resubmit was dropped as a conflicting share.)
func TestMalformedClientCiphertextIsConnectionScoped(t *testing.T) {
	const (
		r        = 3
		n        = 20
		d        = 8
		nr       = 4
		fakeSeed = 81
		ldpSeed  = 82
	)
	priv := sharedKey(t)
	pub := ahe.PublicKey(priv)
	fo := ldp.NewGRR(d, 2)
	values := synthValues(n, d, 83)
	h := startCluster(t, r, nr, fo, priv, fakeSeed, nil, nil)
	holder, addr := h.shufflers[r-1], h.topo.Shufflers[r-1]

	size := priv.CiphertextBytes()
	var five []byte
	for i := 0; i < 5; i++ {
		c, err := pub.Encrypt(uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		five = append(five, pub.Serialize(c)...)
	}
	type frame struct {
		tag   uint32
		first uint32
		body  []byte
	}
	rows := map[string]frame{
		"ragged tail":    {cluster.TagEncShares, 0, append(bytes.Clone(five), 1, 2, 3)},
		"wrapping range": {cluster.TagEncShares, 1<<32 - 3, five},
		"retired tag 4":  {cluster.TagRetiredReport, 0, make([]byte, 8)},
		"retired tag 5":  {cluster.TagRetiredEncReport, 0, five[:size]},
	}
	for name, bad := range cluster.BadCiphertexts(priv) {
		body := bytes.Clone(five)
		copy(body[2*size:], bad)
		rows["third element "+name] = frame{cluster.TagEncShares, 0, body}
	}
	for name, f := range rows {
		conn := hostileClient(t, addr)
		if err := cluster.WriteSharesFrame(conn, f.tag, 0, f.first, 666, f.body); err != nil {
			t.Fatal(err)
		}
		hangsUp(t, conn, name)
		if got := holder.BufferedShares(); got != 0 {
			t.Fatalf("%s: the holder buffered %d shares of a refused frame", name, got)
		}
	}
	// A taken index under another nonce: five users of a collection that
	// never seals go in, then a frame over users 3..7 is refused whole.
	conn := hostileClient(t, addr)
	for _, f := range []struct {
		first uint32
		nonce uint64
	}{{0, 1000}, {3, 2000}} {
		if err := cluster.WriteSharesFrame(conn, cluster.TagEncShares, 99, f.first, f.nonce, five); err != nil {
			t.Fatal(err)
		}
	}
	hangsUp(t, conn, "taken index, other nonce")
	if got := holder.BufferedShares(); got != 5 {
		t.Fatalf("taken index, other nonce: the holder buffered %d shares, want the first frame's 5", got)
	}

	cl, err := cluster.NewClient(cluster.ClientConfig{Topology: h.topo, FO: fo, Pub: pub, Source: rng.New(3)})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.SendValues(0, values, rng.New(ldpSeed)); err != nil {
		t.Fatal(err)
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	col, err := h.analyzer.Collect(n)
	if err != nil {
		t.Fatal(err)
	}
	p, err := protocol.NewPEOS(fo, r, nr, priv, rng.New(99))
	if err != nil {
		t.Fatal(err)
	}
	p.FakeSource = refFakeSource(fakeSeed, r)
	ref, err := p.Run(values, rng.New(ldpSeed))
	if err != nil {
		t.Fatal(err)
	}
	if !estimatesEqual(col.Estimates, ref.Estimates) {
		t.Fatalf("estimates diverged from PEOS.Run after the hostile frames:\n net %v\n ref %v", col.Estimates, ref.Estimates)
	}
}
