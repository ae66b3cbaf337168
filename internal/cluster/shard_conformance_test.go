package cluster_test

// Sharded-analyzer conformance: the window-sharded analyzer tier must
// be BIT-IDENTICAL to protocol.PEOS.Run (and therefore to the
// single-analyzer cluster, which is the analyzers=1 row of the matrix)
// at every analyzer count — per round and cumulatively. The identity
// must survive a shard killed and replaced by a blank one mid-round, a
// chaos-injected reset of a shard's coordinator link, and a hostile
// data link flooding a shard with chunk frames. CI runs this file
// under -race as a named gate.

import (
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"shuffledp/internal/ahe"
	"shuffledp/internal/cluster"
	"shuffledp/internal/faultnet"
	"shuffledp/internal/ldp"
	"shuffledp/internal/protocol"
	"shuffledp/internal/rng"
	"shuffledp/internal/secretshare"
)

// TestShardConformanceMatrix is the headline gate: at every analyzer
// count the sharded cluster's per-round and cumulative estimates are
// bit-identical to protocol.PEOS.Run over matched seeds. analyzers=1 is
// the unsharded topology (a 1-element Analyzers list), so the matrix
// also pins the scale-out path to single-analyzer behavior. 34 words do
// not divide by 3, so the rounding in the cuts is exercised, not just
// equal halves.
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
			for round := 0; round < rounds; round++ {
				values := synthValues(n, d, 410+uint64(round))
				cl.SetCollection(round)
				if err := cl.SendValues(0, values, rng.New(420+uint64(round))); err != nil {
					t.Fatal(err)
				}
				if err := cl.Flush(); err != nil {
					t.Fatal(err)
				}
				col, err := h.analyzer.Collect(n)
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
			}
			wantCum := protocol.Estimate(fo, allRef, rounds*n, rounds*nr)
			if !estimatesEqual(h.analyzer.Estimates(), wantCum) {
				t.Fatalf("cumulative estimate diverged:\n net %v\n ref %v", h.analyzer.Estimates(), wantCum)
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

// TestShardConformanceCrashRecoveredShard kills a shard between rounds,
// starts the next round while it is still down (so the round's early
// attempts run against a dead shard), then brings up a BLANK shard on
// the same address mid-round — a shard holds nothing a restart needs,
// so replacing it is the whole recovery. The healed round and the
// cumulative state must stay bit-identical to the in-process reference,
// with the coordinator's ledger charged once per round.
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
	ledger := testLedger(t)
	retry := cluster.RetryPolicy{Attempts: 12, BaseBackoff: 25 * time.Millisecond, MaxBackoff: 250 * time.Millisecond}
	h := startShardedCluster(t, r, 2, nr, fo, priv, fakeSeed, func(s int, cfg *cluster.AnalyzerConfig) {
		cfg.Retry = retry
		if s == 0 {
			cfg.Ledger = ledger
		}
	}, nil)
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

	// Round 0 completes normally.
	values0 := synthValues(n, d, 432)
	if err := cl.SendValues(0, values0, rng.New(440)); err != nil {
		t.Fatal(err)
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	col0, err := h.analyzer.Collect(n)
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

	// Kill shard 1, then drive round 1 while it is down.
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
		col, err := h.analyzer.Collect(n)
		done <- collectResult{col, err}
	}()

	// Mid-round, a fresh shard takes over the dead one's address.
	time.Sleep(250 * time.Millisecond)
	blank, err := cluster.NewAnalyzer(cluster.AnalyzerConfig{
		Topology:       h.topo,
		FO:             fo,
		NR:             nr,
		Priv:           priv,
		Shard:          1,
		CollectTimeout: testTimeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer blank.Close()
	h.nodes[1] = blank

	var res collectResult
	select {
	case res = <-done:
	case <-time.After(testTimeout):
		t.Fatal("round 1 never healed after the shard was replaced")
	}
	if res.err != nil {
		t.Fatalf("round 1 failed across the shard replacement: %v", res.err)
	}
	if res.col.Attempts < 2 {
		t.Fatalf("round 1 took %d attempt(s); it started against a dead shard", res.col.Attempts)
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
	if !estimatesEqual(h.analyzer.Estimates(), wantCum) {
		t.Fatal("cumulative estimate diverged across the shard replacement")
	}
	if got := cluster.EpochsPaid(ledger); got != 2 {
		t.Fatalf("two rounds charged the coordinator ledger %d times, want 2", got)
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

	// Conn 0 is the shard's first coordinator link. Its hello (8-byte
	// frame header + 4) and the seal it reads (8 + 14) take 34 of the
	// 70-byte budget; the window's words frame (8 + 8 + 14 words × 8 =
	// 128 B) tears 36 bytes in. faultnet counts both directions against
	// one budget.
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
	cl, err := cluster.NewClient(cluster.ClientConfig{Topology: h.topo, FO: fo, Pub: ahe.PublicKey(priv), Source: rng.New(3)})
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
	col, err := h.analyzer.Collect(n)
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
	if got := cluster.EpochsPaid(ledger); got != 1 {
		t.Fatalf("retried round charged the coordinator ledger %d times, want 1", got)
	}
}

// TestShardConformanceHostileDataLinkBounded: shufflers are potentially
// malicious parties (§V), and anything that says hello as shuffler j on
// a shard's listener gets j's data link. A link that parks 1,000 chunk
// frames under distinct future generations must leave the shard holding
// no more chunks than there are shufflers — one slot each, newest frame
// wins — and once the real shuffler's link replaces it, the next round
// seals bit-identically on its first attempt.
func TestShardConformanceHostileDataLinkBounded(t *testing.T) {
	const (
		r        = 2
		n        = 24
		d        = 8
		nr       = 4
		fakeSeed = 471
		junk     = 1000
	)
	priv := sharedKey(t)
	fo := ldp.NewGRR(d, 2)
	h := startShardedCluster(t, r, 2, nr, fo, priv, fakeSeed, nil, nil)
	shard := h.nodes[1]

	// A data link states its frame bound: a length prefix past the
	// largest window a round can cut for this shard (here 512 MiB, inside
	// the transport's 1 GiB ceiling) is refused on the 8-byte header —
	// the link is dropped with nothing buffered, and the rest of this
	// test shows the shard and the round unharmed.
	oversize, err := net.Dial("tcp", h.topo.Analyzers[1])
	if err != nil {
		t.Fatal(err)
	}
	defer oversize.Close()
	if err := cluster.WriteShufflerHello(oversize, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := oversize.Write([]byte{0x20, 0, 0, 0, 0, 0, 0, 7 /* vector */}); err != nil {
		t.Fatal(err)
	}
	oversize.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := oversize.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("the shard kept a data link that announced a 512 MiB chunk (read: %v)", err)
	}

	hostile, err := net.Dial("tcp", h.topo.Analyzers[1])
	if err != nil {
		t.Fatal(err)
	}
	defer hostile.Close()
	if err := cluster.WriteShufflerHello(hostile, 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < junk; i++ {
		if err := cluster.WriteChunkFrame(hostile, uint32(1000+i), 0, make([]uint64, 14)); err != nil {
			t.Fatal(err)
		}
	}
	// Frames on one link are read in order: once slot 1 shows the last
	// generation, the shard has seen all of them.
	last := [2]uint32{1000 + junk - 1, 0}
	for deadline := time.Now().Add(testTimeout); shard.HeldChunks()[1] != last; {
		if time.Now().After(deadline) {
			t.Fatalf("the shard never read the junk frames; it holds %v", shard.HeldChunks())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if held := shard.HeldChunks(); len(held) > r {
		t.Fatalf("%d junk frames left the shard holding %d chunks, want at most %d", junk, len(held), r)
	}

	// The real shuffler 1 dials its data link at its first forward,
	// taking the slot's link back; its chunk overwrites the junk.
	cl, err := cluster.NewClient(cluster.ClientConfig{Topology: h.topo, FO: fo, Pub: ahe.PublicKey(priv), Source: rng.New(3)})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	values := synthValues(n, d, 472)
	if err := cl.SendValues(0, values, rng.New(473)); err != nil {
		t.Fatal(err)
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	col, err := h.analyzer.Collect(n)
	if err != nil {
		t.Fatalf("the round after the flood: %v", err)
	}
	p, err := protocol.NewPEOS(fo, r, nr, priv, rng.New(99))
	if err != nil {
		t.Fatal(err)
	}
	p.FakeSource = refFakeSource(fakeSeed, r)
	ref, err := p.Run(values, rng.New(473))
	if err != nil {
		t.Fatal(err)
	}
	if col.Attempts != 1 || !estimatesEqual(col.Estimates, ref.Estimates) {
		t.Fatalf("the round after the flood took %d attempt(s) and estimated\n net %v\n ref %v", col.Attempts, col.Estimates, ref.Estimates)
	}
	// The done frame is best-effort and asynchronous; once it lands the
	// shard holds nothing at all.
	for deadline := time.Now().Add(testTimeout); len(shard.HeldChunks()) != 0 || shard.Collections() != 1; {
		if time.Now().After(deadline) {
			t.Fatalf("after the sealed round the shard still holds %v (done watermark %d)", shard.HeldChunks(), shard.Collections())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestShardConformanceOutlivesCoordinatorDowntime: a shard is stateless,
// so no coordinator outage ends it. The coordinator is crashed and held
// down for several of the shard's dial budgets, then recovered at the
// same address with the shard left running: the shard must have kept
// redialing, and the next round — through restarted shufflers — must be
// bit-identical to protocol.PEOS.Run. (A shard that gave up after one
// spent dial budget kept its listener open and surfaced nothing, and
// the recovered coordinator waited for it forever.)
func TestShardConformanceOutlivesCoordinatorDowntime(t *testing.T) {
	const (
		r           = 2
		n           = 24
		d           = 8
		nr          = 4
		fakeSeed    = 491
		dialTimeout = 100 * time.Millisecond
	)
	priv := sharedKey(t)
	fo := ldp.NewGRR(d, 2)
	dir := t.TempDir()
	h := startShardedCluster(t, r, 2, nr, fo, priv, fakeSeed, func(s int, cfg *cluster.AnalyzerConfig) {
		if s == 0 {
			cfg.DataDir = dir
		} else {
			cfg.SetDialTimeout(dialTimeout)
		}
	}, func(j int, cfg *cluster.ShufflerConfig) {
		cfg.FakeSource = perCollectionFakeSource(fakeSeed, r, 0, j)
	})
	// round drives collection c through coordinator a and checks it
	// against a fresh in-process reference with the collection's fakes.
	round := func(a *cluster.Analyzer, c int) {
		t.Helper()
		values := synthValues(n, d, 492+uint64(c))
		cl, err := cluster.NewClient(cluster.ClientConfig{Topology: h.topo, FO: fo, Pub: ahe.PublicKey(priv), Source: rng.New(3)})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		cl.SetCollection(c)
		if err := cl.SendValues(0, values, rng.New(494+uint64(c))); err != nil {
			t.Fatal(err)
		}
		if err := cl.Flush(); err != nil {
			t.Fatal(err)
		}
		col, err := a.Collect(n)
		if err != nil {
			t.Fatalf("collection %d: %v", c, err)
		}
		p, err := protocol.NewPEOS(fo, r, nr, priv, rng.New(99))
		if err != nil {
			t.Fatal(err)
		}
		p.FakeSource = func(j int) secretshare.Source { return perCollectionFakeSource(fakeSeed, r, c, j) }
		ref, err := p.Run(values, rng.New(494+uint64(c)))
		if err != nil {
			t.Fatal(err)
		}
		if !estimatesEqual(col.Estimates, ref.Estimates) {
			t.Fatalf("collection %d diverged from PEOS.Run:\n net %v\n ref %v", c, col.Estimates, ref.Estimates)
		}
	}
	round(h.analyzer, 0)

	// Power cut at the coordinator. The shufflers follow one analyzer run
	// and exit on its EOF; the shard stays up.
	h.analyzer.Crash()
	for j, errc := range h.runErr {
		select {
		case <-errc:
		case <-time.After(testTimeout):
			t.Fatalf("shuffler %d's Run survived the coordinator crash", j)
		}
	}
	time.Sleep(5 * dialTimeout)

	rec, err := cluster.RecoverAnalyzer(cluster.AnalyzerConfig{
		Topology:       h.topo,
		FO:             fo,
		NR:             nr,
		Priv:           priv,
		DataDir:        dir,
		CollectTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	startShufflers(t, h.topo, nil, nr, priv, fakeSeed, func(j int, cfg *cluster.ShufflerConfig) {
		cfg.FakeSource = perCollectionFakeSource(fakeSeed, r, 1, j)
	})
	round(rec, 1)
	if got := h.nodes[1].Collections(); got < 1 {
		t.Fatalf("the shard's done watermark reads %d after two sealed collections", got)
	}
}
