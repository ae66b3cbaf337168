package cluster_test

// TestParallelEOSConformance is the named conformance gate of the
// fanned-out shuffler tier (DESIGN.md §14): every fan-out width —
// including a mesh link torn mid-vector and a client link torn
// mid-stream — must produce estimates bit-identical to the serial
// in-process protocol.PEOS.Run reference. The width is GOMAXPROCS, which every
// node of the in-process fleet shares, so the test sets it itself (a
// 1-core runner still exercises width 4 against width 1) and must not
// run in parallel with anything. CI runs this file under -race.

import (
	"net"
	"runtime"
	"testing"
	"time"

	"shuffledp/internal/ahe"
	"shuffledp/internal/cluster"
	"shuffledp/internal/faultnet"
	"shuffledp/internal/ldp"
	"shuffledp/internal/protocol"
	"shuffledp/internal/rng"
)

// setWidth pins the PEOS fan-out width (GOMAXPROCS) until the calling
// test or subtest ends.
func setWidth(t *testing.T, width int) {
	prev := runtime.GOMAXPROCS(width)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

func TestParallelEOSConformance(t *testing.T) {
	const (
		r        = 2
		n        = 30
		d        = 8
		nr       = 4
		fakeSeed = 401
		ldpSeed  = 403
	)
	priv := sharedKey(t)
	fo := ldp.NewGRR(d, 2)
	values := synthValues(n, d, 402)

	// The serial reference every networked variant must reproduce. Each
	// subtest starts a fresh cluster with the same fake seed and the
	// same single collection, so one reference serves them all.
	setWidth(t, 1)
	p, err := protocol.NewPEOS(fo, r, nr, priv, rng.New(99))
	if err != nil {
		t.Fatal(err)
	}
	p.FakeSource = refFakeSource(fakeSeed, r)
	ref, err := p.Run(values, rng.New(ldpSeed))
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Estimates

	// runOnce drives one collection through a fresh cluster and returns
	// the estimates, the attempt count, and the client (for reconnect
	// assertions). A nil dial uses the plain TCP client.
	runOnce := func(t *testing.T, mutateS func(int, *cluster.ShufflerConfig), dial cluster.DialFunc) ([]float64, int, *cluster.Client) {
		t.Helper()
		h := startCluster(t, r, nr, fo, priv, fakeSeed, nil, mutateS)
		cl, err := cluster.NewClient(cluster.ClientConfig{Topology: h.topo, FO: fo, Pub: ahe.PublicKey(priv), Source: rng.New(3), Dial: dial})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
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
		return col.Estimates, col.Attempts, cl
	}

	// The width grid.
	t.Run("grid", func(t *testing.T) {
		for _, workers := range []int{1, 2, 4} {
			setWidth(t, workers)
			got, _, _ := runOnce(t, nil, nil)
			if !estimatesEqual(got, want) {
				t.Fatalf("workers=%d diverged from the serial reference:\n net %v\n ref %v", workers, got, want)
			}
		}
	})

	// A mesh connection reset mid-vector (the reset lands inside the
	// first 284-byte share-vector frame): the retry must replay the
	// round on a fresh link and still converge bit-identically.
	t.Run("mid-vector-fault", func(t *testing.T) {
		setWidth(t, 2)
		meshChaos := faultnet.New(faultnet.Config{Plan: func(conn int) faultnet.Fault {
			if conn == 0 {
				return faultnet.Fault{ResetAfter: 180}
			}
			return faultnet.Fault{}
		}})
		var meshAddr string
		got, attempts, _ := runOnce(t, func(j int, cfg *cluster.ShufflerConfig) {
			if j == 1 {
				meshAddr = cfg.Topology.Shufflers[0]
				cfg.Dial = chaosDialTo(meshChaos, meshAddr)
			}
		}, nil)
		if attempts < 2 {
			t.Fatalf("round took %d attempt(s); the mid-vector reset should have forced a retry", attempts)
		}
		if got := meshChaos.Stats().Resets; got < 1 {
			t.Fatalf("mesh chaos injected %d resets, want >= 1", got)
		}
		if !estimatesEqual(got, want) {
			t.Fatalf("estimates diverged across the mid-vector fault:\n net %v\n ref %v", got, want)
		}
	})

	// A client link torn inside its shares frame while the fleet runs
	// parallel: the client reconnects and resubmits (nonce-deduplicated),
	// and the estimates still match.
	t.Run("chaos-client-link", func(t *testing.T) {
		setWidth(t, 4)
		const clientReset = 150
		tearsFirstFrame(t, clientReset, n)
		clientChaos := faultnet.New(faultnet.Config{Plan: func(conn int) faultnet.Fault {
			if conn == 0 {
				return faultnet.Fault{ResetAfter: clientReset}
			}
			return faultnet.Fault{}
		}})
		var shuf0 string
		mutateS := func(j int, cfg *cluster.ShufflerConfig) {
			if j == 0 {
				shuf0 = cfg.Topology.Shufflers[j]
			}
		}
		// Resolve shuffler 0's address before the client dials: the
		// harness assigns it inside startCluster, so route through a
		// closure that reads it at dial time.
		dial := func(target string, timeout time.Duration) (net.Conn, error) {
			if target == shuf0 {
				return clientChaos.Dial(target, timeout)
			}
			return net.DialTimeout("tcp", target, timeout)
		}
		got, _, cl := runOnce(t, mutateS, dial)
		if got := clientChaos.Stats().Resets; got < 1 {
			t.Fatalf("client chaos injected %d resets, want >= 1", got)
		}
		if cl.Reconnects() < 1 {
			t.Fatal("client never reconnected across the torn link")
		}
		if !estimatesEqual(got, want) {
			t.Fatalf("estimates diverged across the torn client link:\n net %v\n ref %v", got, want)
		}
	})
}
