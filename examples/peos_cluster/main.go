// PEOS cluster: the paper's hardened protocol (§VI, Algorithm 1) run
// the way it would be deployed — one process-equivalent node per
// party, chained over real TCP listeners on loopback. R shuffler nodes
// accept secret-share columns from the clients, inject their joint
// fake-report shares, run the encrypted oblivious shuffle among
// themselves (hide-and-seek rounds as real peer messages), and forward
// the post-shuffle vectors to the analyzer node, which decrypts with
// the DGK private key and serves estimates. Nobody but the analyzer
// ever holds the private key; nobody but a single shuffler ever holds
// a share column.
//
// The demo asserts the security refactor changed nothing about the
// math: every collection's estimate must be BIT-IDENTICAL to the
// in-process reference protocol.PEOS.Run for the same seeds, and the
// cumulative estimate must equal the protocol estimator over all
// rounds' reports. Any drift exits non-zero.
//
// With -chaos, the same run happens through a deterministic fault
// layer (internal/faultnet): the shuffler mesh takes a hard connection
// reset mid-shuffle and the client link to shuffler 0 is torn while it
// streams reports. The analyzer heals a round by abort + re-seal and
// the client a link by reconnect + resubmit — the cluster's one
// policy, in every run — and the run must STILL end bit-identical to
// the in-process reference with every fault healed automatically — the
// self-healing demo.
//
//	go run ./examples/peos_cluster [-n 400] [-d 16] [-shufflers 2] [-fakes 24]
//	                               [-collections 2] [-keybits 512] [-seed 1]
//	                               [-chaos]
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"time"

	"shuffledp/internal/ahe"
	"shuffledp/internal/cluster"
	"shuffledp/internal/faultnet"
	"shuffledp/internal/ldp"
	"shuffledp/internal/protocol"
	"shuffledp/internal/rng"
	"shuffledp/internal/secretshare"
)

var (
	nFlag       = flag.Int("n", 400, "users per collection round")
	dFlag       = flag.Int("d", 16, "value domain size")
	rFlag       = flag.Int("shufflers", 2, "shuffler nodes (R >= 2)")
	nrFlag      = flag.Int("fakes", 24, "joint fake reports per round")
	colFlag     = flag.Int("collections", 2, "collection rounds")
	keyBits     = flag.Int("keybits", 512, "DGK modulus bits (paper deploys 3072)")
	seedFlag    = flag.Uint64("seed", 1, "base seed for all deterministic streams")
	chaosFlag   = flag.Bool("chaos", false, "inject deterministic faults (mesh reset + client disconnect) and self-heal")
	timeoutFlag = flag.Duration("timeout", 60*time.Second, "per-phase safety timeout")
)

// meshNet carries the shuffler-mesh faults in -chaos mode (nil
// otherwise): connections dialed to shuffler 0 route through it.
var meshNet *faultnet.Network

// chaosDialTo routes dials to one target address through the fault
// network and leaves every other dial untouched.
func chaosDialTo(n *faultnet.Network, target string) cluster.DialFunc {
	return func(addr string, timeout time.Duration) (net.Conn, error) {
		if addr == target {
			return n.Dial(addr, timeout)
		}
		return net.DialTimeout("tcp", addr, timeout)
	}
}

// nodes is one running cluster: listeners bound first so the topology
// carries real ports, then one goroutine per role.
type nodes struct {
	topo      cluster.Topology
	analyzer  *cluster.Analyzer
	shufflers []*cluster.Shuffler
	runErr    []chan error
}

// startNodes boots the analyzer and R shufflers on loopback. Shuffler
// j draws its fake shares from substream j of seed, the convention the
// in-process reference mirrors.
func startNodes(priv *ahe.DGKPrivateKey, fo ldp.FrequencyOracle) (*nodes, error) {
	r := *rFlag
	lns := make([]net.Listener, r)
	topo := cluster.Topology{Shufflers: make([]string, r)}
	for j := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns[j] = ln
		topo.Shufflers[j] = ln.Addr().String()
	}
	aln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	topo.Analyzers = []string{aln.Addr().String()}

	an, err := cluster.NewAnalyzer(cluster.AnalyzerConfig{
		Topology:       topo,
		Listener:       aln,
		FO:             fo,
		NR:             *nrFlag,
		Priv:           priv,
		CollectTimeout: *timeoutFlag,
	})
	if err != nil {
		return nil, err
	}
	ns := &nodes{topo: topo, analyzer: an}
	for j := 0; j < r; j++ {
		scfg := cluster.ShufflerConfig{
			Index:       j,
			Topology:    topo,
			Listener:    lns[j],
			NR:          *nrFlag,
			Pub:         ahe.PublicKey(priv),
			Source:      rng.Substream(*seedFlag, 5000+uint64(j)),
			FakeSource:  fakeSource(j),
			SealTimeout: *timeoutFlag,
		}
		if meshNet != nil && j > 0 {
			// Only higher-index shufflers dial shuffler 0, so this is
			// exactly the mesh leg the chaos plan tears.
			scfg.Dial = chaosDialTo(meshNet, topo.Shufflers[0])
		}
		sh, err := cluster.NewShuffler(scfg)
		if err != nil {
			return nil, err
		}
		ns.shufflers = append(ns.shufflers, sh)
		errc := make(chan error, 1)
		ns.runErr = append(ns.runErr, errc)
		go func() { errc <- sh.Run() }()
	}
	return ns, nil
}

func (ns *nodes) stop() {
	ns.analyzer.Close()
	for _, sh := range ns.shufflers {
		sh.Close()
	}
	for _, errc := range ns.runErr {
		select {
		case <-errc:
		case <-time.After(*timeoutFlag):
			log.Fatal("FAIL: a shuffler node did not shut down")
		}
	}
}

// fakeSource is shuffler j's fake-share stream.
func fakeSource(j int) *rng.Rand {
	return rng.Substream(*seedFlag, uint64(j))
}

// refRun is the in-process Algorithm 1 with fakes drawn from the
// given per-shuffler sources — aligned by the caller with the state of
// the cluster nodes' own fake streams.
func refRun(priv *ahe.DGKPrivateKey, fo ldp.FrequencyOracle, values []int, fs func(j int) secretshare.Source, collection int) (*protocol.Result, error) {
	p, err := protocol.NewPEOS(fo, *rFlag, *nrFlag, priv, rng.Substream(*seedFlag, 9000))
	if err != nil {
		return nil, err
	}
	p.FakeSource = fs
	return p.Run(values, rng.Substream(*seedFlag, 8000+uint64(collection)))
}

func synthValues(collection int) []int {
	src := rng.Substream(*seedFlag, 7000+uint64(collection))
	values := make([]int, *nFlag)
	for i := range values {
		values[i] = src.Intn(*dFlag)
	}
	return values
}

func equal(a, b []float64) bool {
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

func main() {
	flag.Parse()
	if *rFlag < 2 {
		log.Fatal("PEOS needs at least 2 shufflers")
	}
	fo := ldp.NewGRR(*dFlag, 2)
	fmt.Printf("generating DGK-%d key pair...\n", *keyBits)
	priv, err := ahe.GenerateDGK(*keyBits, 64)
	if err != nil {
		log.Fatal(err)
	}

	var clientNet *faultnet.Network
	if *chaosFlag {
		// Deterministic plans: the first mesh leg of each of the first
		// two collections takes a hard reset mid-shuffle, and the
		// client's first link to shuffler 0 is torn while it streams
		// reports. Everything else is clean.
		meshNet = faultnet.New(faultnet.Config{Plan: func(conn int) faultnet.Fault {
			if conn == 0 || conn == 2 {
				return faultnet.Fault{ResetAfter: 200}
			}
			return faultnet.Fault{}
		}})
		clientNet = faultnet.New(faultnet.Config{Plan: func(conn int) faultnet.Fault {
			if conn == 0 {
				return faultnet.Fault{ResetAfter: 600}
			}
			return faultnet.Fault{}
		}})
		fmt.Println("chaos: mesh resets on connections 0 and 2 after 200 B, client reset on connection 0 after 600 B")
	}

	fmt.Printf("cluster: %d shufflers + analyzer on loopback TCP, %d fakes/round, %d users/round\n",
		*rFlag, *nrFlag, *nFlag)
	ns, err := startNodes(priv, fo)
	if err != nil {
		log.Fatal(err)
	}
	defer ns.stop()
	ccfg := cluster.ClientConfig{
		Topology: ns.topo,
		FO:       fo,
		Pub:      ahe.PublicKey(priv),
		Source:   rng.Substream(*seedFlag, 6000),
	}
	if *chaosFlag {
		ccfg.Dial = clientNet.Dial
	}
	client, err := cluster.NewClient(ccfg)
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	// The shuffler nodes live across rounds, so their fake streams
	// continue from round to round; the reference mirrors that with
	// one persistent source per shuffler, handed to every refRun.
	refSrcs := make([]secretshare.Source, *rFlag)
	for j := range refSrcs {
		refSrcs[j] = fakeSource(j)
	}
	refFS := func(j int) secretshare.Source { return refSrcs[j] }
	var refAll []ldp.Report
	attempts := 0
	for c := 0; c < *colFlag; c++ {
		values := synthValues(c)
		client.SetCollection(c)
		if err := client.SendValues(0, values, rng.Substream(*seedFlag, 8000+uint64(c))); err != nil {
			log.Fatal(err)
		}
		if err := client.Flush(); err != nil {
			log.Fatal(err)
		}
		col, err := ns.analyzer.Collect(*nFlag)
		if err != nil {
			log.Fatalf("collection %d: %v", c, err)
		}
		ref, err := refRun(priv, fo, values, refFS, c)
		if err != nil {
			log.Fatal(err)
		}
		if !equal(col.Estimates, ref.Estimates) {
			log.Fatalf("FAIL: collection %d estimates diverged from protocol.PEOS.Run", c)
		}
		refAll = append(refAll, ref.Reports...)
		attempts += col.Attempts
		top := 4
		if top > len(col.Estimates) {
			top = len(col.Estimates)
		}
		fmt.Printf("  collection %d: %d users + %d fakes, %d attempt(s), est[:%d] = %.4f  == in-process PEOS ✓\n",
			c, col.Reports, col.Fakes, col.Attempts, top, col.Estimates[:top])
	}
	wantCum := protocol.Estimate(fo, refAll, *colFlag**nFlag, *colFlag**nrFlag)
	if !equal(ns.analyzer.Estimates(), wantCum) {
		log.Fatal("FAIL: cumulative estimate diverged from the protocol estimator")
	}
	fmt.Printf("cumulative over %d rounds bit-identical to the in-process reference ✓\n", *colFlag)

	if *chaosFlag {
		mesh, cl := meshNet.Stats(), clientNet.Stats()
		fmt.Printf("chaos healed: mesh %d conns / %d resets, client %d conns / %d resets, %d client reconnects, %d round attempts\n",
			mesh.Conns, mesh.Resets, cl.Conns, cl.Resets, client.Reconnects(), attempts)
		if mesh.Resets == 0 || cl.Resets == 0 {
			log.Fatal("FAIL: chaos plan injected no faults (byte budgets never reached?)")
		}
		if client.Reconnects() == 0 {
			log.Fatal("FAIL: client link was reset but never healed")
		}
		if attempts <= *colFlag {
			log.Fatal("FAIL: mesh was reset but no collection round retried")
		}
		fmt.Println("every injected fault healed without intervention ✓")
	}
}
