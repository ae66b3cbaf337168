package main

// The peos suite times the cryptographic path — Algorithm 1 end to
// end — in both deployment shapes so the crypto cost enters the perf
// trajectory next to the aggregation and service suites:
//
//   - in-process: protocol.PEOS.Run (the simulator), with the paper's
//     per-party cost accounting (transport.Meter bytes).
//   - cluster: the role-separated tier of internal/cluster — R real
//     shuffler nodes + analyzer node over loopback TCP, real framing,
//     real DGK ciphertext (de)serialization on every hop.
//
// The delta between the two is the real price of the network layer;
// the absolute numbers trace the DGK/EOS cost model of Table III.

import (
	"fmt"
	"log"
	"net"
	"runtime"
	"time"

	"shuffledp/internal/ahe"
	"shuffledp/internal/cluster"
	"shuffledp/internal/ldp"
	"shuffledp/internal/protocol"
	"shuffledp/internal/rng"
	"shuffledp/internal/transport"
)

type peosCase struct {
	R       int `json:"r"`
	N       int `json:"n"`
	NR      int `json:"nr"`
	D       int `json:"d"`
	KeyBits int `json:"key_bits"`
	// In-process Algorithm 1 (protocol.PEOS.Run).
	InProcessSeconds     float64 `json:"in_process_seconds"`
	InProcessNsPerReport float64 `json:"in_process_ns_per_report"`
	// Role-separated cluster over loopback TCP (internal/cluster).
	ClusterSeconds     float64 `json:"cluster_seconds"`
	ClusterNsPerReport float64 `json:"cluster_ns_per_report"`
	// Per-party communication of the in-process run (Table III view).
	UserSentBytes     int64 `json:"user_sent_bytes"`
	ShufflerSentBytes int64 `json:"shuffler0_sent_bytes"`
	ServerRecvBytes   int64 `json:"server_recv_bytes"`
}

// peosScalingCase is one row of the analyzer scale-out sweep: the same
// collection round, analyzer tier sharded A ways by domain partition.
// CoordinatorWindowWords is the coordinator's share of the post-shuffle
// vector — the words IT must decrypt; the rest decrypt on the other
// shards. ClusterSeconds is the measured wall clock of the whole round,
// the only scaling signal the row carries: all nodes share this
// process's GOMAXPROCS (recorded in the report header), so read the
// column against the core count.
type peosScalingCase struct {
	Analyzers              int     `json:"analyzers"`
	R                      int     `json:"r"`
	N                      int     `json:"n"`
	NR                     int     `json:"nr"`
	KeyBits                int     `json:"key_bits"`
	CoordinatorWindowWords int     `json:"coordinator_window_words"`
	ClusterSeconds         float64 `json:"cluster_seconds"`
	ClusterNsPerReport     float64 `json:"cluster_ns_per_report"`
}

type peosReport struct {
	Benchmark   string `json:"benchmark"`
	GeneratedBy string `json:"generated_by"`
	// GoMaxProcs is the width every per-element PEOS pass fanned out at;
	// NumCPU the cores the host actually has.
	GoMaxProcs int        `json:"go_max_procs"`
	NumCPU     int        `json:"num_cpu"`
	Note       string     `json:"note"`
	Cases      []peosCase `json:"cases"`
	// AnalyzerScaling sweeps the sharded analyzer tier at the first r
	// and the last key size of the grid.
	AnalyzerScaling []peosScalingCase `json:"analyzer_scaling,omitempty"`
}

func runPEOSSuite(n, d, nr int, keyBitsList, rs, analyzerCounts []int) (*peosReport, error) {
	fo := ldp.NewGRR(d, 2)
	src := rng.New(11)
	values := make([]int, n)
	for i := range values {
		values[i] = src.Intn(d)
	}
	rep := &peosReport{
		Benchmark:   "PEOS",
		GeneratedBy: "cmd/bench",
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		Note: "in_process is protocol.PEOS.Run; cluster is internal/cluster " +
			"(R shuffler nodes + analyzer over loopback TCP); one warm key pair " +
			"per key size, estimates of the two paths are bit-identical by the " +
			"conformance tests; every column is a measured wall clock",
	}
	var priv *ahe.DGKPrivateKey
	for _, keyBits := range keyBitsList {
		var err error
		if priv, err = ahe.GenerateDGK(keyBits, 64); err != nil {
			return nil, err
		}
		for _, r := range rs {
			c := peosCase{R: r, N: n, NR: nr, D: d, KeyBits: keyBits}

			var meter *transport.Meter
			inNs := timeIt(func() {
				p, err := protocol.NewPEOS(fo, r, nr, priv, rng.New(21))
				if err != nil {
					log.Fatal(err)
				}
				res, err := p.Run(values, rng.New(22))
				if err != nil {
					log.Fatal(err)
				}
				meter = res.Meter
				sink(res.Estimates)
			})
			c.InProcessSeconds = inNs / 1e9
			c.InProcessNsPerReport = inNs / float64(n)
			c.UserSentBytes = meter.Stats(protocol.PartyUsers).SentBytes
			c.ShufflerSentBytes = meter.Stats(protocol.ShufflerName(0)).SentBytes
			c.ServerRecvBytes = meter.Stats(protocol.PartyServer).RecvBytes

			clNs, err := timePEOSCluster(fo, priv, values, r, nr, 1)
			if err != nil {
				return nil, err
			}
			c.ClusterSeconds = clNs / 1e9
			c.ClusterNsPerReport = clNs / float64(n)

			fmt.Printf("peos r=%d n=%d nr=%d key=%d: in-process %.2fs (%.0f ns/report)  cluster %.2fs (%.0f ns/report)\n",
				r, n, nr, keyBits,
				c.InProcessSeconds, c.InProcessNsPerReport, c.ClusterSeconds, c.ClusterNsPerReport)
			rep.Cases = append(rep.Cases, c)
		}
	}

	// Analyzer scale-out sweep: the same synthetic round on the last
	// (warm) key, sharded wider and wider. Estimates stay bit-identical
	// at every width (the shard conformance suite proves it); the row
	// reports what a wall clock saw, nothing derived.
	keyBits, r := keyBitsList[len(keyBitsList)-1], rs[0]
	for _, analyzers := range analyzerCounts {
		plan, err := cluster.EvenPlan(d, analyzers)
		if err != nil {
			return nil, err
		}
		clNs, err := timePEOSCluster(fo, priv, values, r, nr, analyzers)
		if err != nil {
			return nil, err
		}
		sc := peosScalingCase{
			Analyzers:              analyzers,
			R:                      r,
			N:                      n,
			NR:                     nr,
			KeyBits:                keyBits,
			CoordinatorWindowWords: plan.Cuts(n + nr)[1],
			ClusterSeconds:         clNs / 1e9,
			ClusterNsPerReport:     clNs / float64(n),
		}
		fmt.Printf("peos scaling analyzers=%d r=%d key=%d: coordinator window %d/%d words, round %.2fs\n",
			analyzers, r, keyBits, sc.CoordinatorWindowWords, n+nr, sc.ClusterSeconds)
		rep.AnalyzerScaling = append(rep.AnalyzerScaling, sc)
	}
	return rep, nil
}

// timePEOSCluster stands up a fresh loopback cluster — the analyzer
// tier sharded `analyzers` ways — and times one full collection round
// (client submission through served estimate).
func timePEOSCluster(fo ldp.FrequencyOracle, priv *ahe.DGKPrivateKey, values []int, r, nr, analyzers int) (float64, error) {
	lns := make([]net.Listener, r)
	topo := cluster.Topology{Shufflers: make([]string, r), Analyzers: make([]string, analyzers)}
	for j := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return 0, err
		}
		lns[j] = ln
		topo.Shufflers[j] = ln.Addr().String()
	}
	alns := make([]net.Listener, analyzers)
	for s := range alns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return 0, err
		}
		alns[s] = ln
		topo.Analyzers[s] = ln.Addr().String()
	}
	nodes := make([]*cluster.Analyzer, analyzers)
	for s := range nodes {
		node, err := cluster.NewAnalyzer(cluster.AnalyzerConfig{
			Topology:       topo,
			Listener:       alns[s],
			FO:             fo,
			NR:             nr,
			Priv:           priv,
			Shard:          s,
			CollectTimeout: 5 * time.Minute,
		})
		if err != nil {
			return 0, err
		}
		defer node.Close()
		nodes[s] = node
	}
	analyzer := nodes[0]
	shufflers := make([]*cluster.Shuffler, r)
	for j := 0; j < r; j++ {
		sh, err := cluster.NewShuffler(cluster.ShufflerConfig{
			Index:       j,
			Topology:    topo,
			Listener:    lns[j],
			NR:          nr,
			Pub:         ahe.PublicKey(priv),
			Source:      rng.New(100 + uint64(j)),
			SealTimeout: 5 * time.Minute,
		})
		if err != nil {
			return 0, err
		}
		shufflers[j] = sh
		go sh.Run()
	}
	defer func() {
		for _, sh := range shufflers {
			sh.Close()
		}
	}()

	start := time.Now()
	cl, err := cluster.DialClient(topo, fo, ahe.PublicKey(priv), rng.New(31), 0)
	if err != nil {
		return 0, err
	}
	defer cl.Close()
	if err := cl.SendValues(0, values, rng.New(22)); err != nil {
		return 0, err
	}
	if err := cl.Flush(); err != nil {
		return 0, err
	}
	col, err := analyzer.Collect(len(values))
	if err != nil {
		return 0, err
	}
	sink(col.Estimates)
	return float64(time.Since(start).Nanoseconds()), nil
}
