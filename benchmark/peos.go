package main

import (
	"fmt"
	"net"
	"time"

	"shuffledp/internal/ahe"
	"shuffledp/internal/cluster"
	"shuffledp/internal/ldp"
	"shuffledp/internal/protocol"
	"shuffledp/internal/rng"
	"shuffledp/internal/secretshare"
	"shuffledp/internal/transport"
)

// nodeTimeout bounds every cluster wait so a wedged round fails the
// run instead of hanging it past the driver's deadline.
const nodeTimeout = 90 * time.Second

// PEOS rng streams, all derived from the run seed. The fake streams
// are seeded the way the cluster conformance suites seed them —
// shuffler j's node and the reference's FakeSource(j) share one
// substream — which is what makes the cluster bit-identical to
// protocol.PEOS.Run.
func ldpStream(seed uint64, rep int) *rng.Rand { return rng.Substream(seed, 0x1000+uint64(rep)) }
func fakeStream(seed uint64, rep, j int) *rng.Rand {
	return rng.Substream(seed^0xfa4e, uint64(rep)<<8|uint64(j))
}
func shareStream(seed uint64, rep, j int) *rng.Rand {
	return rng.Substream(seed^0x5a4e, uint64(rep)<<8|uint64(j))
}

// loadKey unmarshals the checked-in DGK fixture — the measured key
// load: parse, validate, rebuild the gamma and fixed-base tables.
func loadKey(bits int) (*ahe.DGKPrivateKey, float64, error) {
	blob, err := keyBlob(bits)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	priv, err := ahe.UnmarshalDGKPrivateKey(blob)
	return priv, float64(time.Since(start).Nanoseconds()) / 1e6, err
}

// newReferencePEOS builds the in-process protocol the way the
// conformance suites do for a cluster comparison.
func newReferencePEOS(w workload, priv *ahe.DGKPrivateKey, seed uint64, repIdx int) (*protocol.PEOS, error) {
	p, err := protocol.NewPEOS(w.fo(), w.r, w.nr, priv, shareStream(seed, repIdx, w.r))
	if err != nil {
		return nil, err
	}
	fakes := make([]secretshare.Source, w.r)
	for j := range fakes {
		fakes[j] = fakeStream(seed, repIdx, j)
	}
	p.FakeSource = func(j int) secretshare.Source { return fakes[j] }
	return p, nil
}

// meterCounts flattens a PEOS run's Table III view into counters.
func meterCounts(m *transport.Meter, r int, into map[string]float64) int64 {
	var total int64
	maxShuffler := time.Duration(0)
	for _, party := range m.Parties() {
		total += m.Stats(party).SentBytes
	}
	for j := 0; j < r; j++ {
		if cpu := m.Stats(protocol.ShufflerName(j)).CPU; cpu > maxShuffler {
			maxShuffler = cpu
		}
	}
	into["users_cpu_s"] = m.Stats(protocol.PartyUsers).CPU.Seconds()
	into["shuffler_max_cpu_s"] = maxShuffler.Seconds()
	into["server_cpu_s"] = m.Stats(protocol.PartyServer).CPU.Seconds()
	into["user_sent_bytes"] = float64(m.Stats(protocol.PartyUsers).SentBytes)
	into["shuffler0_sent_bytes"] = float64(m.Stats(protocol.ShufflerName(0)).SentBytes)
	into["server_recv_bytes"] = float64(m.Stats(protocol.PartyServer).RecvBytes)
	return total
}

// runInprocRep runs one repetition of peos_inproc_r2: one
// protocol.PEOS.Run, no sockets.
func runInprocRep(w workload, seed uint64, repIdx int, tr *tracer) (*rep, error) {
	res := newRep(tr)

	setupStart := time.Now()
	priv, keyMS, err := loadKey(w.keyBits)
	if err != nil {
		return nil, err
	}
	fo := w.fo()
	values := w.values(seed)
	p, err := newReferencePEOS(w, priv, seed, repIdx)
	if err != nil {
		return nil, err
	}
	res.setupS = time.Since(setupStart).Seconds()
	res.counts["key_load_ms"] = keyMS

	win := openWindow()
	root := tr.begin("rep", "driver", repIdx, 0)
	sp := tr.begin("run", "driver", repIdx, root)
	start := time.Now()
	out, err := p.Run(values, ldpStream(seed, repIdx))
	end := time.Now()
	tr.end(sp, int64(w.n))
	tr.end(root, int64(w.n))
	if err != nil {
		return nil, fmt.Errorf("PEOS.Run: %w", err)
	}
	win.close(res)
	res.wallS = end.Sub(start).Seconds()
	// PEOS.Run interleaves its phases internally; from outside the
	// only honest split is the per-party busy time its Meter reports.
	res.wireBytes = meterCounts(out.Meter, w.r, res.counts)
	res.edgeBytes = int64(res.counts["user_sent_bytes"] + res.counts["server_recv_bytes"])
	res.phases["submit"] = res.counts["users_cpu_s"]
	res.phases["collect"] = res.wallS - res.counts["users_cpu_s"]
	hits, misses := priv.RandomizerPoolStats()
	res.counts["pool_hits"], res.counts["pool_misses"] = float64(hits), float64(misses)
	res.estimates = out.Estimates
	res.mseRatio = mseRatio(fo, ldp.TrueFrequencies(values, w.d), out.Estimates, w.n)
	if len(out.Reports) != w.n+w.nr {
		res.failed = int64(w.n)
		res.gateErr = fmt.Errorf("server saw %d reports, want %d users + %d fakes", len(out.Reports), w.n, w.nr)
	}
	return res, nil
}

// runClusterRep runs one repetition of peos_cluster_r3: r shuffler
// nodes, one analyzer node and one client, every link a loopback TCP
// connection counted from outside.
func runClusterRep(w workload, seed uint64, repIdx int, tr *tracer) (*rep, error) {
	res := newRep(tr)

	setupStart := time.Now()
	priv, keyMS, err := loadKey(w.keyBits)
	if err != nil {
		return nil, err
	}
	pub := ahe.PublicKey(priv)
	fo := w.fo()
	values := w.values(seed)

	// shufflerIn counts the shufflers' listeners (client and mesh
	// traffic), analyzerIn the analyzer's, clientOut the client's own
	// dials — so mesh bytes are shufflerIn − clientOut.
	var shufflerIn, analyzerIn, clientOut byteCounter
	var topo cluster.Topology
	lns := make([]net.Listener, w.r)
	for j := range lns {
		if lns[j], err = listenLoopback(&shufflerIn); err != nil {
			return nil, err
		}
		topo.Shufflers = append(topo.Shufflers, lns[j].Addr().String())
	}
	aln, err := listenLoopback(&analyzerIn)
	if err != nil {
		return nil, err
	}
	topo.Analyzers = []string{aln.Addr().String()}

	analyzer, err := cluster.NewAnalyzer(cluster.AnalyzerConfig{
		Topology: topo, Listener: aln, FO: fo, NR: w.nr, Priv: priv, CollectTimeout: nodeTimeout,
	})
	if err != nil {
		return nil, err
	}
	// Teardown: stop every node and wait for each shuffler's Run, so no
	// goroutine or socket outlives the repetition.
	var shufflers []*cluster.Shuffler
	runErr := make(chan error, w.r)
	defer func() {
		analyzer.Close()
		for _, sh := range shufflers {
			sh.Close()
		}
		for range shufflers {
			<-runErr
		}
	}()
	for j := 0; j < w.r; j++ {
		sh, err := cluster.NewShuffler(cluster.ShufflerConfig{
			Index: j, Topology: topo, Listener: lns[j], NR: w.nr, Pub: pub,
			Source: shareStream(seed, repIdx, j), FakeSource: fakeStream(seed, repIdx, j),
			SealTimeout: nodeTimeout,
		})
		if err != nil {
			return nil, err
		}
		shufflers = append(shufflers, sh)
		go func() { runErr <- sh.Run() }()
	}
	res.setupS = time.Since(setupStart).Seconds()
	res.counts["key_load_ms"] = keyMS

	win := openWindow()
	root := tr.begin("rep", "driver", repIdx, 0)
	start := time.Now()

	sp := tr.begin("dial", "driver", repIdx, root)
	cl, err := cluster.NewClient(cluster.ClientConfig{
		Topology: topo, FO: fo, Pub: pub, Source: shareStream(seed, repIdx, w.r),
		Dial: countingDial(&clientOut),
	})
	tDial := time.Now()
	tr.end(sp, 0)
	if err != nil {
		return nil, fmt.Errorf("dial: %w", err)
	}
	defer cl.Close()

	sp = tr.begin("submit", "driver", repIdx, root)
	if err := cl.SendValues(0, values, ldpStream(seed, repIdx)); err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	if err := cl.Flush(); err != nil {
		return nil, fmt.Errorf("flush: %w", err)
	}
	tSubmit := time.Now()
	tr.end(sp, int64(w.n))

	sp = tr.begin("collect", "driver", repIdx, root)
	col, err := analyzer.Collect(w.n)
	end := time.Now()
	tr.end(sp, int64(w.n+w.nr))
	tr.end(root, int64(w.n))
	if err != nil {
		return nil, fmt.Errorf("collect: %w", err)
	}

	win.close(res)
	res.wallS = end.Sub(start).Seconds()
	res.phases["dial"] = tDial.Sub(start).Seconds()
	res.phases["submit"] = tSubmit.Sub(tDial).Seconds()
	res.phases["collect"] = end.Sub(tSubmit).Seconds()
	res.counts["link_bytes_client_shuffler"] = float64(clientOut.Bytes())
	res.counts["link_bytes_shuffler_mesh"] = float64(shufflerIn.Bytes() - clientOut.Bytes())
	res.counts["link_bytes_shuffler_analyzer"] = float64(analyzerIn.Bytes())
	res.counts["attempts"] = float64(col.Attempts)
	res.counts["client_reconnects"] = float64(cl.Reconnects())
	hits, misses := priv.RandomizerPoolStats()
	res.counts["pool_hits"], res.counts["pool_misses"] = float64(hits), float64(misses)
	res.wireBytes = shufflerIn.Bytes() + analyzerIn.Bytes()
	res.edgeBytes = clientOut.Bytes() + analyzerIn.Bytes()
	res.estimates = col.Estimates
	res.mseRatio = mseRatio(fo, ldp.TrueFrequencies(values, w.d), col.Estimates, w.n)
	res.failed = int64(w.n-col.Reports) + int64(col.Attempts-1) + int64(cl.Reconnects())
	if col.Reports != w.n || col.Fakes != w.nr || col.Attempts != 1 {
		res.gateErr = fmt.Errorf("round sealed %d reports + %d fakes in %d attempts, want %d + %d in 1",
			col.Reports, col.Fakes, col.Attempts, w.n, w.nr)
	}
	return res, nil
}

// clusterReference runs protocol.PEOS.Run on repetition repIdx's
// inputs and seeds. Its estimate is the cluster's bit-identity
// reference; its wall clock is the denominator of
// cluster.overhead_ratio, and its Meter the Table III view.
func clusterReference(w workload, seed uint64, repIdx int) (est []float64, wallS float64, counts map[string]float64, err error) {
	priv, _, err := loadKey(w.keyBits)
	if err != nil {
		return nil, 0, nil, err
	}
	p, err := newReferencePEOS(w, priv, seed, repIdx)
	if err != nil {
		return nil, 0, nil, err
	}
	values := w.values(seed)
	start := time.Now()
	out, err := p.Run(values, ldpStream(seed, repIdx))
	if err != nil {
		return nil, 0, nil, err
	}
	wallS = time.Since(start).Seconds()
	counts = map[string]float64{}
	meterCounts(out.Meter, w.r, counts)
	return out.Estimates, wallS, counts, nil
}
