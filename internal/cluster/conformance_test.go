package cluster_test

// Cross-conformance: the networked PEOS cluster, the in-process
// protocol.PEOS.Run, and the crash-recovered durable tiers
// (cluster.RecoverAnalyzer here, service.Recover in the no-fakes leg)
// must all produce bit-identical estimates for matched seeds. The
// estimates are pure functions of integer support counts, so equality
// is exact — any drift is a protocol bug, not float noise. CI runs
// this file under -race.

import (
	"errors"
	"net"
	"testing"
	"time"

	"shuffledp/internal/ahe"
	"shuffledp/internal/budget"
	"shuffledp/internal/cluster"
	"shuffledp/internal/composition"
	"shuffledp/internal/ecies"
	"shuffledp/internal/ldp"
	"shuffledp/internal/protocol"
	"shuffledp/internal/rng"
	"shuffledp/internal/secretshare"
	"shuffledp/internal/service"
	"shuffledp/internal/store"
)

// perCollectionFakeSource gives collection c of shuffler j the fake
// substream (c*r + j) — restartable: a shuffler process started fresh
// for collection c draws the same fakes as the reference run.
func perCollectionFakeSource(fakeSeed uint64, r, c, j int) *rng.Rand {
	return rng.Substream(fakeSeed, uint64(c*r+j))
}

// The durable analyzer leg: collection 0 through a durable analyzer,
// hard crash, RecoverAnalyzer, collection 1 through restarted
// shufflers — and the cumulative estimate must equal the in-process
// protocol estimator over both rounds' reference reports. The budget
// ledger must recover its charge count and refuse a third round.
func TestConformanceCrashRecoveredAnalyzer(t *testing.T) {
	const (
		r        = 2
		n        = 24
		d        = 8
		nr       = 4
		fakeSeed = 81
	)
	priv := sharedKey(t)
	fo := ldp.NewGRR(d, 2)
	dir := t.TempDir()
	newLedger := func() *budget.Ledger {
		l, err := budget.NewLedger(
			composition.Guarantee{Eps: 2, Delta: 2e-9},
			composition.Guarantee{Eps: 1, Delta: 1e-9},
		)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}

	// --- Reference: two in-process PEOS runs, fakes aligned per
	// collection, cumulative estimate over the concatenated reports.
	values0 := synthValues(n, d, 82)
	values1 := synthValues(n, d, 83)
	var refReports []ldp.Report
	var refPerRound [][]float64
	for c, values := range [][]int{values0, values1} {
		p, err := protocol.NewPEOS(fo, r, nr, priv, rng.New(99))
		if err != nil {
			t.Fatal(err)
		}
		c := c
		p.FakeSource = func(j int) secretshare.Source {
			return perCollectionFakeSource(fakeSeed, r, c, j)
		}
		ref, err := p.Run(values, rng.New(90+uint64(c)))
		if err != nil {
			t.Fatal(err)
		}
		refReports = append(refReports, ref.Reports...)
		refPerRound = append(refPerRound, ref.Estimates)
	}
	refCum := protocol.Estimate(fo, refReports, 2*n, 2*nr)

	// --- Collection 0 through a durable cluster.
	h := startCluster(t, r, nr, fo, priv, fakeSeed, func(cfg *cluster.AnalyzerConfig) {
		cfg.DataDir = dir
		cfg.Ledger = newLedger()
	}, func(j int, cfg *cluster.ShufflerConfig) {
		cfg.FakeSource = perCollectionFakeSource(fakeSeed, r, 0, j)
	})
	cl, err := cluster.NewClient(cluster.ClientConfig{Topology: h.topo, FO: fo, Pub: ahe.PublicKey(priv), Source: rng.New(3)})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.SendValues(0, values0, rng.New(90)); err != nil {
		t.Fatal(err)
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	col0, err := h.analyzer.Collect(n)
	if err != nil {
		t.Fatal(err)
	}
	if !estimatesEqual(col0.Estimates, refPerRound[0]) {
		t.Fatal("collection 0 diverged from the in-process reference")
	}
	cl.Close()

	// --- Power cut. Everything dies; only the data directory survives.
	h.analyzer.Crash()
	for _, sh := range h.shufflers {
		sh.Close()
	}
	for _, errc := range h.runErr {
		select {
		case <-errc:
		case <-time.After(testTimeout):
			t.Fatal("a shuffler Run survived the crash")
		}
	}

	// --- Recover the analyzer on the same topology and restart the
	// shufflers as fresh processes.
	recovered, err := cluster.RecoverAnalyzer(cluster.AnalyzerConfig{
		Topology:       h.topo,
		FO:             fo,
		NR:             nr,
		Priv:           priv,
		DataDir:        dir,
		Ledger:         newLedger(),
		CollectTimeout: testTimeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if recovered.Collections() != 1 {
		t.Fatalf("recovered %d collections, want 1", recovered.Collections())
	}
	if !estimatesEqual(recovered.Estimates(), refPerRound[0]) {
		t.Fatal("recovered cumulative estimate diverged from collection 0")
	}
	startShufflers(t, h.topo, nil, nr, priv, fakeSeed, func(j int, cfg *cluster.ShufflerConfig) {
		cfg.Source = rng.Substream(fakeSeed, 2000+uint64(j))
		cfg.FakeSource = perCollectionFakeSource(fakeSeed, r, 1, j)
	})

	cl2, err := cluster.NewClient(cluster.ClientConfig{Topology: h.topo, FO: fo, Pub: ahe.PublicKey(priv), Source: rng.New(4)})
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	cl2.SetCollection(1)
	if err := cl2.SendValues(0, values1, rng.New(91)); err != nil {
		t.Fatal(err)
	}
	if err := cl2.Flush(); err != nil {
		t.Fatal(err)
	}
	col1, err := recovered.Collect(n)
	if err != nil {
		t.Fatal(err)
	}
	if !estimatesEqual(col1.Estimates, refPerRound[1]) {
		t.Fatal("post-recovery collection diverged from the in-process reference")
	}
	if !estimatesEqual(recovered.Estimates(), refCum) {
		t.Fatalf("crash-recovered cumulative estimate diverged:\n net %v\n ref %v", recovered.Estimates(), refCum)
	}

	// The restored ledger spent both collections; a third must be
	// refused with the budget error, not silently collected.
	if _, err := recovered.Collect(n); !errors.Is(err, budget.ErrExhausted) {
		t.Fatalf("third collection: want budget.ErrExhausted, got %v", err)
	}
}

// The no-fakes leg ties all three networked tiers together: with
// NR = 0 and the same pre-randomized SOLH reports, the PEOS cluster,
// protocol.PEOS.Run, and a crash-recovered streaming Service
// (service.Recover) are three routes to the same aggregate — and must
// produce bit-identical estimates.
func TestConformanceNoFakesClusterPEOSAndRecoveredService(t *testing.T) {
	const (
		r       = 2
		n       = 60
		d       = 12
		ldpSeed = 7
	)
	priv := sharedKey(t)
	fo := ldp.NewSOLH(d, 4, 2)
	values := synthValues(n, d, 8)
	reports := make([]ldp.Report, n)
	lr := rng.New(ldpSeed)
	for i, v := range values {
		reports[i] = fo.Randomize(v, lr)
	}

	// --- In-process PEOS reference (NR = 0 → Equation (3) calibration).
	p, err := protocol.NewPEOS(fo, r, 0, priv, rng.New(99))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := p.Run(values, rng.New(ldpSeed))
	if err != nil {
		t.Fatal(err)
	}

	// --- Networked cluster over the same reports.
	h := startCluster(t, r, 0, fo, priv, 101, nil, nil)
	cl, err := cluster.NewClient(cluster.ClientConfig{Topology: h.topo, FO: fo, Pub: ahe.PublicKey(priv), Source: rng.New(3)})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i, rep := range reports {
		if err := cl.SendReport(i, rep); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	col, err := h.analyzer.Collect(n)
	if err != nil {
		t.Fatal(err)
	}
	if !estimatesEqual(col.Estimates, ref.Estimates) {
		t.Fatalf("cluster diverged from PEOS.Run:\n net %v\n ref %v", col.Estimates, ref.Estimates)
	}

	// --- Crash-recovered streaming service over the same reports.
	key, err := ecies.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	cfg := service.Config{
		FO:      fo,
		Key:     key,
		DataDir: t.TempDir(),
		Sync:    store.SyncAlways,
	}
	svc, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	send := func(svc *service.Service, from int) (int, error) {
		clientSide, serverSide := net.Pipe()
		if err := svc.Ingest(serverSide); err != nil {
			return from, err
		}
		scl, err := service.NewSessionClient(fo, key.Public(), nil, clientSide, 1)
		if err != nil {
			return from, err
		}
		for i := from; i < len(reports); i++ {
			if err := scl.SendReport(reports[i]); err != nil {
				// The crash below races the sender; resume from the
				// durable count.
				clientSide.Close()
				return i, nil
			}
		}
		return len(reports), scl.Close()
	}
	sent, err := send(svc, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sent < len(reports) {
		t.Fatalf("first pass stopped early at %d", sent)
	}
	// Wait until half the stream has at least been read off the wire,
	// then power-cut. How much of it is durable depends on what the
	// shuffler stage had already write-ahead logged — any prefix is a
	// valid crash point; the resume below fills in the rest.
	deadline := time.Now().Add(testTimeout)
	for svc.Snapshot().Received < int64(n/2) {
		if time.Now().After(deadline) {
			t.Fatal("service never accepted half the stream")
		}
		time.Sleep(5 * time.Millisecond)
	}
	svc.Crash()
	svc, err = service.Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	durable := int(svc.Snapshot().Received)
	if durable > n {
		t.Fatalf("recovered %d reports from a %d-report stream", durable, n)
	}
	if sent, err = send(svc, durable); err != nil || sent != len(reports) {
		t.Fatalf("resume pass: sent=%d err=%v", sent, err)
	}
	snap, err := svc.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Reports != n {
		t.Fatalf("service aggregated %d reports, want %d", snap.Reports, n)
	}
	if !estimatesEqual(snap.Estimates, ref.Estimates) {
		t.Fatalf("crash-recovered service diverged from PEOS.Run:\n svc %v\n ref %v", snap.Estimates, ref.Estimates)
	}
}
