package cluster_test

// Domain-partition conformance: the partition-sharded analyzer tier
// must be BIT-IDENTICAL to protocol.PEOS.Run (and therefore to the
// single-analyzer cluster, which is the analyzers=1 row of the matrix)
// at every analyzer count — per round, cumulatively, and through the
// tier-wide merge proof (protocol.MergeShardCounts over every node's
// ShardCounts reproduces the coordinator's counts). The identity must
// survive a mid-round shard crash healed by RecoverAnalyzer and a
// chaos-injected reset of a shard's coordinator link. CI runs this
// file under -race as a named gate.

import (
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"shuffledp/internal/ahe"
	"shuffledp/internal/cluster"
	"shuffledp/internal/faultnet"
	"shuffledp/internal/ldp"
	"shuffledp/internal/protocol"
	"shuffledp/internal/rng"
	"shuffledp/internal/store"
)

// shardHarness is an R-shuffler cluster with a sharded analyzer tier:
// nodes[0] is the coordinator, nodes[1:] the window shards.
type shardHarness struct {
	topo      cluster.Topology
	nodes     []*cluster.Analyzer
	shufflers []*cluster.Shuffler
	runErr    []chan error
}

func (h *shardHarness) coordinator() *cluster.Analyzer { return h.nodes[0] }

// mergedEstimates runs the tier-wide merge proof: sum every node's
// window tally and push it through the shared estimator.
func (h *shardHarness) mergedEstimates(fo ldp.FrequencyOracle) []float64 {
	shards := make([][]int, len(h.nodes))
	for s, node := range h.nodes {
		shards[s] = node.ShardCounts()
	}
	reals, fakes := h.coordinator().Totals()
	return protocol.EstimateCounts(fo, protocol.MergeShardCounts(shards), reals, fakes)
}

// bindShardTopology reserves loopback listeners for r shufflers and
// `analyzers` analyzer shards, all carried in Topology.Analyzers.
func bindShardTopology(t *testing.T, r, analyzers int) (cluster.Topology, []net.Listener, []net.Listener) {
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

// startShardedCluster builds and runs the full sharded cluster:
// `analyzers` analyzer nodes (shard 0 coordinating) plus r shufflers.
func startShardedCluster(t *testing.T, r, analyzers, nr int, fo ldp.FrequencyOracle, priv *ahe.DGKPrivateKey, fakeSeed uint64, mutateA func(int, *cluster.AnalyzerConfig), mutateS func(int, *cluster.ShufflerConfig)) *shardHarness {
	t.Helper()
	topo, slns, alns := bindShardTopology(t, r, analyzers)
	h := &shardHarness{topo: topo}
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
		h.nodes = append(h.nodes, node)
	}
	for j := 0; j < r; j++ {
		scfg := cluster.ShufflerConfig{
			Index:       j,
			Topology:    topo,
			Listener:    slns[j],
			NR:          nr,
			Pub:         ahe.PublicKey(priv),
			Source:      rng.Substream(fakeSeed, 1000+uint64(j)),
			FakeSource:  rng.Substream(fakeSeed, uint64(j)),
			SealTimeout: testTimeout,
		}
		if mutateS != nil {
			mutateS(j, &scfg)
		}
		sh, err := cluster.NewShuffler(scfg)
		if err != nil {
			t.Fatal(err)
		}
		h.shufflers = append(h.shufflers, sh)
		errc := make(chan error, 1)
		h.runErr = append(h.runErr, errc)
		go func() { errc <- sh.Run() }()
	}
	t.Cleanup(func() {
		for _, node := range h.nodes {
			node.Close()
		}
		for _, sh := range h.shufflers {
			sh.Close()
		}
	})
	return h
}

// TestShardConformanceMatrix is the headline gate: at every analyzer
// count the sharded cluster's per-round and cumulative estimates are
// bit-identical to protocol.PEOS.Run over matched seeds, and the merge
// proof holds after every round. analyzers=1 is the unsharded topology
// (a 1-element Analyzers list), so the matrix also pins the
// scale-out path to single-analyzer behavior. With d=8, analyzers=3
// does not divide the domain evenly, so the uneven-cut arithmetic is
// exercised, not just balanced halves.
func TestShardConformanceMatrix(t *testing.T) {
	const (
		r        = 2
		n        = 30
		d        = 8
		nr       = 4
		rounds   = 2
		fakeSeed = 401
	)
	priv := sharedKey(t)
	fo := ldp.NewGRR(d, 2)
	for _, analyzers := range []int{1, 2, 3} {
		analyzers := analyzers
		t.Run(fmt.Sprintf("analyzers=%d", analyzers), func(t *testing.T) {
			h := startShardedCluster(t, r, analyzers, nr, fo, priv, fakeSeed, nil, nil)
			cl, err := cluster.DialClient(h.topo, fo, ahe.PublicKey(priv), rng.New(3), 0)
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
			for round := 0; round < rounds; round++ {
				values := synthValues(n, d, 410+uint64(round))
				cl.SetCollection(round)
				if err := cl.SendValues(0, values, rng.New(420+uint64(round))); err != nil {
					t.Fatal(err)
				}
				if err := cl.Flush(); err != nil {
					t.Fatal(err)
				}
				col, err := h.coordinator().Collect(n)
				if err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				ref, err := p.Run(values, rng.New(420+uint64(round)))
				if err != nil {
					t.Fatal(err)
				}
				if !estimatesEqual(col.Estimates, ref.Estimates) {
					t.Fatalf("round %d diverged from PEOS.Run:\n net %v\n ref %v", round, col.Estimates, ref.Estimates)
				}
				allRef = append(allRef, ref.Reports...)
				if merged := h.mergedEstimates(fo); !estimatesEqual(merged, h.coordinator().Estimates()) {
					t.Fatalf("round %d: merged shard counts diverged from the coordinator:\n merged %v\n coord  %v", round, merged, h.coordinator().Estimates())
				}
			}
			wantCum := protocol.Estimate(fo, allRef, rounds*n, rounds*nr)
			if !estimatesEqual(h.coordinator().Estimates(), wantCum) {
				t.Fatalf("cumulative estimate diverged:\n net %v\n ref %v", h.coordinator().Estimates(), wantCum)
			}
			// Shards are passive: Collect on one must refuse, pointing
			// at the coordinator.
			if analyzers > 1 {
				if _, err := h.nodes[1].Collect(n); err == nil || !strings.Contains(err.Error(), "passive") {
					t.Fatalf("Collect on a shard: %v", err)
				}
			}
		})
	}
}

// TestShardConformanceCrashRecoveredShard crashes a durable window
// shard between rounds, starts the next round while the shard is still
// down (so the round's early attempts run against a dead shard), then
// recovers the shard with RecoverAnalyzer mid-round. The healed round
// — and the cumulative state and merge proof — must stay bit-identical
// to the in-process reference.
func TestShardConformanceCrashRecoveredShard(t *testing.T) {
	const (
		r        = 2
		n        = 24
		d        = 8
		nr       = 4
		fakeSeed = 431
	)
	priv := sharedKey(t)
	fo := ldp.NewGRR(d, 2)
	shardDir := t.TempDir()
	retry := cluster.RetryPolicy{Attempts: 12, BaseBackoff: 25 * time.Millisecond, MaxBackoff: 250 * time.Millisecond}
	h := startShardedCluster(t, r, 2, nr, fo, priv, fakeSeed, func(s int, cfg *cluster.AnalyzerConfig) {
		cfg.Retry = retry
		if s == 1 {
			cfg.DataDir = shardDir
			cfg.Sync = store.SyncAlways
		}
	}, nil)
	cl, err := cluster.DialClient(h.topo, fo, ahe.PublicKey(priv), rng.New(3), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	p, err := protocol.NewPEOS(fo, r, nr, priv, rng.New(99))
	if err != nil {
		t.Fatal(err)
	}
	p.FakeSource = refFakeSource(fakeSeed, r)

	// Round 0 completes normally and commits on both analyzer nodes.
	values0 := synthValues(n, d, 432)
	if err := cl.SendValues(0, values0, rng.New(440)); err != nil {
		t.Fatal(err)
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	col0, err := h.coordinator().Collect(n)
	if err != nil {
		t.Fatal(err)
	}
	ref0, err := p.Run(values0, rng.New(440))
	if err != nil {
		t.Fatal(err)
	}
	if !estimatesEqual(col0.Estimates, ref0.Estimates) {
		t.Fatal("round 0 diverged before the crash")
	}

	// Power-cut shard 1, then drive round 1 while it is down.
	h.nodes[1].Crash()
	values1 := synthValues(n, d, 433)
	cl.SetCollection(1)
	if err := cl.SendValues(0, values1, rng.New(441)); err != nil {
		t.Fatal(err)
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	type collectResult struct {
		col cluster.Collection
		err error
	}
	done := make(chan collectResult, 1)
	go func() {
		col, err := h.coordinator().Collect(n)
		done <- collectResult{col, err}
	}()

	// Mid-round, bring the shard back from its WAL on the same address.
	time.Sleep(250 * time.Millisecond)
	recovered, err := cluster.RecoverAnalyzer(cluster.AnalyzerConfig{
		Topology:       h.topo,
		FO:             fo,
		NR:             nr,
		Priv:           priv,
		Shard:          1,
		DataDir:        shardDir,
		Sync:           store.SyncAlways,
		Retry:          retry,
		CollectTimeout: testTimeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if recovered.Collections() != 1 {
		t.Fatalf("recovered shard committed %d windows, want 1", recovered.Collections())
	}
	h.nodes[1] = recovered

	var res collectResult
	select {
	case res = <-done:
	case <-time.After(testTimeout):
		t.Fatal("round 1 never healed after the shard recovery")
	}
	if res.err != nil {
		t.Fatalf("round 1 failed across the shard crash: %v", res.err)
	}
	ref1, err := p.Run(values1, rng.New(441))
	if err != nil {
		t.Fatal(err)
	}
	if !estimatesEqual(res.col.Estimates, ref1.Estimates) {
		t.Fatalf("healed round diverged from PEOS.Run:\n net %v\n ref %v", res.col.Estimates, ref1.Estimates)
	}
	refAll := append(append([]ldp.Report(nil), ref0.Reports...), ref1.Reports...)
	wantCum := protocol.Estimate(fo, refAll, 2*n, 2*nr)
	if !estimatesEqual(h.coordinator().Estimates(), wantCum) {
		t.Fatal("cumulative estimate diverged across the shard crash")
	}
	if merged := h.mergedEstimates(fo); !estimatesEqual(merged, h.coordinator().Estimates()) {
		t.Fatalf("merge proof failed across the shard crash:\n merged %v\n coord  %v", merged, h.coordinator().Estimates())
	}
	if recovered.Collections() != 2 {
		t.Fatalf("recovered shard committed %d windows after the healed round, want 2", recovered.Collections())
	}
}

// TestShardConformanceChaosCoordinatorLink resets the shard's
// coordinator link mid-attempt on a deterministic byte schedule: the
// shard redials, the round retries, and the healed round is still
// bit-identical, with the coordinator's ledger charged exactly once
// despite the extra attempts.
func TestShardConformanceChaosCoordinatorLink(t *testing.T) {
	const (
		r        = 2
		n        = 24
		d        = 8
		nr       = 4
		fakeSeed = 451
	)
	priv := sharedKey(t)
	fo := ldp.NewGRR(d, 2)

	// Conn 0 is the shard's first coordinator link. Its hello (~24B)
	// and the seal it reads (~20B) fit the 70-byte budget; the window's
	// words frame (~128B for 14 words) tears mid-write. faultnet counts
	// both directions against one budget.
	linkChaos := faultnet.New(faultnet.Config{Plan: func(conn int) faultnet.Fault {
		if conn == 0 {
			return faultnet.Fault{ResetAfter: 70}
		}
		return faultnet.Fault{}
	}})

	ledger := testLedger(t)
	h := startShardedCluster(t, r, 2, nr, fo, priv, fakeSeed, func(s int, cfg *cluster.AnalyzerConfig) {
		cfg.Retry = chaosRetry()
		if s == 0 {
			cfg.Ledger = ledger
		}
		if s == 1 {
			cfg.Dial = chaosDialTo(linkChaos, cfg.Topology.Coordinator())
		}
	}, nil)
	cl, err := cluster.DialClient(h.topo, fo, ahe.PublicKey(priv), rng.New(3), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	values := synthValues(n, d, 452)
	if err := cl.SendValues(0, values, rng.New(453)); err != nil {
		t.Fatal(err)
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	col, err := h.coordinator().Collect(n)
	if err != nil {
		t.Fatalf("round never healed from the shard-link reset: %v", err)
	}
	if col.Attempts < 2 {
		t.Fatalf("round took %d attempt(s); the shard-link reset should have forced a retry", col.Attempts)
	}
	if got := linkChaos.Stats().Resets; got < 1 {
		t.Fatalf("shard-link chaos injected %d resets, want >= 1", got)
	}
	p, err := protocol.NewPEOS(fo, r, nr, priv, rng.New(99))
	if err != nil {
		t.Fatal(err)
	}
	p.FakeSource = refFakeSource(fakeSeed, r)
	ref, err := p.Run(values, rng.New(453))
	if err != nil {
		t.Fatal(err)
	}
	if !estimatesEqual(col.Estimates, ref.Estimates) {
		t.Fatal("estimates diverged across the shard-link reset")
	}
	if merged := h.mergedEstimates(fo); !estimatesEqual(merged, h.coordinator().Estimates()) {
		t.Fatal("merge proof failed across the shard-link reset")
	}
	if got := ledger.Epochs(); got != 1 {
		t.Fatalf("retried round charged the coordinator ledger %d times, want 1", got)
	}
}
