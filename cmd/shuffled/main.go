// Command shuffled runs the shuffle model as a real streaming
// deployment over TCP loopback (Figure 1 of the paper, §III): the
// analysis server hosts the internal/service ingestion tier — batch
// shuffler plus a decode/aggregate worker pool — and several
// concurrent collector gateways stream the users' reports into it in
// session-sealed batches. The live estimate is printed from mid-stream
// Snapshots while ingestion is still running; Drain prints the final
// histogram and the per-party cost account (transport.Meter).
//
// The run is continual: the stream is cut into -epochs collection
// rounds (auto-rotated every n/epochs reports), a budget ledger
// charges each epoch's (eps, delta) against -total-eps under the
// chosen -accountant, and the sealed epochs answer sliding-window
// queries. With -total-eps too small for the epoch count the service
// demonstrates budget exhaustion: it seals what the ledger affords and
// rejects the rest of the stream.
//
// With -data-dir the run is durable: accepted reports are write-ahead
// logged and every rotation writes a checkpoint (fsync cadence chosen
// by -fsync). Pointing -data-dir at a directory that already holds
// state recovers it — sealed epochs, ledger charges, and the open
// epoch's reports come back bit-identical — and the run resumes from
// there instead of re-spending budget (DESIGN.md §8).
//
// Role subcommands grow the binary into the PEOS security tier
// (§VI-A3): `shuffled analyzer`, `shuffled shuffler`, and
// `shuffled client` each run one party of the role-separated cluster
// (internal/cluster) as its own process — see cluster.go in this
// directory for the multi-terminal walkthrough. Without a subcommand
// the binary keeps its original single-node streaming behavior below.
//
// Usage:
//
//	shuffled [-n users] [-d domain] [-eps epsC] [-seed s] [-clients c] [-batch b]
//	         [-epochs e] [-total-eps B] [-accountant naive|advanced] [-window k]
//	         [-data-dir dir] [-fsync always|batch|none]
//	         [-session-batch r] [-max-frame bytes]
//	shuffled analyzer|shuffler|client [role flags; -h lists them]
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"sync"
	"time"

	"shuffledp/internal/amplify"
	"shuffledp/internal/budget"
	"shuffledp/internal/composition"
	"shuffledp/internal/dataset"
	"shuffledp/internal/ecies"
	"shuffledp/internal/ldp"
	"shuffledp/internal/service"
	"shuffledp/internal/store"
	"shuffledp/internal/transport"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "analyzer":
			runAnalyzer(os.Args[2:])
			return
		case "shuffler":
			runShuffler(os.Args[2:])
			return
		case "client":
			runClient(os.Args[2:])
			return
		}
	}
	n := flag.Int("n", 20000, "number of users")
	d := flag.Int("d", 64, "domain size")
	epsC := flag.Float64("eps", 1, "per-epoch central privacy budget")
	delta := flag.Float64("delta", 1e-9, "DP failure probability")
	seed := flag.Uint64("seed", 1, "random seed")
	clients := flag.Int("clients", 8, "concurrent collector connections")
	batch := flag.Int("batch", 512, "shuffle-batch size (the anonymity granularity)")
	epochs := flag.Int("epochs", 3, "collection rounds to cut the stream into")
	totalEps := flag.Float64("total-eps", 0, "total privacy budget across epochs (0: exactly -epochs rounds of -eps)")
	accountant := flag.String("accountant", "naive", "budget composition: naive or advanced")
	window := flag.Int("window", 2, "sliding-window width for the final window query")
	dataDir := flag.String("data-dir", "", "durable state directory (WAL + checkpoints); empty runs in-memory")
	fsync := flag.String("fsync", "batch", "WAL fsync policy: always (every accepted frame before any of its reports is batched), batch (every shuffle batch), or none (epoch seals only)")
	sessionBatch := flag.Int("session-batch", 0, "reports per session frame (0: the service default)")
	maxFrame := flag.Int("max-frame", 0, "per-connection frame cap in bytes; oversized frames kick the connection (0: the service default)")
	flag.Parse()
	if *clients < 1 {
		*clients = 1
	}
	if *epochs < 1 {
		*epochs = 1
	}

	values := dataset.Synthetic("demo", *n, *d, 1.3, *seed).Values

	// Parameterize SOLH for the per-epoch central budget.
	m := amplify.BlanketM(*epsC, *n, *delta)
	dPrime := amplify.OptimalDPrime(m, *d)
	epsL, err := amplify.LocalEpsilonSOLH(*epsC, dPrime, *n, *delta)
	if err != nil {
		log.Fatal(err)
	}
	fo := ldp.NewSOLH(*d, dPrime, epsL)
	fmt.Printf("SOLH(epsL=%.3f, d'=%d) -> (%.2f, %.0e)-DP per epoch after shuffling\n",
		epsL, dPrime, *epsC, *delta)

	// The cross-epoch ledger: by default budget exactly -epochs rounds.
	if *totalEps <= 0 {
		*totalEps = *epsC * float64(*epochs)
	}
	var acct budget.Accountant = budget.Naive{}
	totalDelta := *delta * 1e2
	if *accountant == "advanced" {
		acct = budget.Advanced{Slack: totalDelta / 2}
	}
	ledger, err := budget.NewLedger(
		composition.Guarantee{Eps: *totalEps, Delta: totalDelta},
		composition.Guarantee{Eps: *epsC, Delta: *delta},
		acct,
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("budget ledger: total eps=%.2f, per-epoch eps=%.2f, %s accounting admits %d epochs\n",
		*totalEps, *epsC, ledger.AccountantName(), ledger.MaxEpochs())

	key, err := ecies.GenerateKey()
	if err != nil {
		log.Fatal(err)
	}

	syncPolicy, err := store.ParseSyncPolicy(*fsync)
	if err != nil {
		log.Fatal(err)
	}
	var meter transport.Meter
	cfg := service.Config{
		FO:           fo,
		Key:          key,
		BatchSize:    *batch,
		ShuffleSeed:  *seed + 1,
		Meter:        &meter,
		Ledger:       ledger,
		EpochReports: (*n + *epochs - 1) / *epochs,
		DataDir:      *dataDir,
		Sync:         syncPolicy,
		MaxFrame:     *maxFrame,
	}
	svc, err := service.New(cfg)
	if *dataDir != "" && errors.Is(err, store.ErrExists) {
		// The directory holds a previous run: recover it instead of
		// starting over.
		svc, err = service.Recover(cfg)
		if err == nil {
			snap := svc.Snapshot()
			fmt.Printf("recovered durable state from %s: epoch %d open, %d reports durable, %d epochs sealed\n",
				*dataDir, snap.Epoch, snap.Received, len(svc.History()))
		}
	}
	if err != nil {
		log.Fatal(err)
	}
	if *dataDir != "" {
		fmt.Printf("durable: WAL + checkpoints under %s (fsync=%s)\n", *dataDir, syncPolicy)
	}
	if svc.Exhausted() {
		// A recovered run whose budget ran out refuses every gateway:
		// report what it sealed and stop.
		fmt.Println("budget exhausted: the recovered service admits no more reports")
		printLedger(svc, ledger, *totalEps, totalDelta)
		svc.Close()
		return
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ingestion service listening on %s (%d gateways, batch=%d, rotate every %d reports)\n",
		ln.Addr(), *clients, *batch, (*n+*epochs-1)/(*epochs))
	serveDone := make(chan error, 1)
	go func() { serveDone <- svc.Serve(ln) }()

	// Randomize on the users' side of the ledger. The shard substreams
	// make the report multiset a pure function of -seed, so the all-time
	// histogram is bit-identical to the sequential aggregate of the same
	// reports (RandomizeParallel, Add, Estimates) at this seed, no matter
	// how the gateways interleave or the epochs cut (DESIGN.md §6).
	var reports []ldp.Report
	meter.Track(service.PartyUsers, func() {
		reports = ldp.RandomizeParallel(fo, values, *seed, 0)
	})

	var wg sync.WaitGroup
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				log.Fatal(err)
			}
			cl, err := service.NewSessionClient(fo, key.Public(), nil, conn, *sessionBatch)
			if err != nil {
				log.Fatal(err)
			}
			for i := c; i < len(reports); i += *clients {
				if err := cl.SendReport(reports[i]); err != nil {
					log.Fatalf("gateway %d: %v", c, err)
				}
			}
			if err := cl.Close(); err != nil {
				log.Fatalf("gateway %d close: %v", c, err)
			}
		}(c)
	}

	// Watch the stream: the histogram is live long before the last
	// report arrives, and the open epoch advances as the rotator cuts.
	watchDone := make(chan struct{})
	go func() {
		defer close(watchDone)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for range tick.C {
			snap := svc.Snapshot()
			fmt.Printf("  snapshot: epoch %d, %6d reports received, %d batches shuffled, est[0]=%.4f\n",
				snap.Epoch, snap.Received, snap.Batches, snap.Estimates[0])
			// Received/Late/Rejected are disjoint, so their sum is every
			// report the readers have seen.
			if snap.Received+snap.Late+snap.Rejected >= int64(*n) {
				return
			}
		}
	}()

	wg.Wait()
	// The gateways have written and closed, but a batched session client
	// finishes so fast its connection may still sit in the listener
	// backlog, not yet accepted. Drain's cutoff would discard it, so wait
	// until the service accounts for every report (the watcher's exit
	// condition) before draining.
	<-watchDone
	snap, err := svc.Drain()
	if err != nil {
		log.Fatal(err)
	}
	if err := <-serveDone; err != nil {
		log.Fatal(err)
	}

	hist := printLedger(svc, ledger, *totalEps, totalDelta)
	if svc.Exhausted() {
		fmt.Printf("budget exhausted: %d reports rejected after the ledger refused epoch %d\n",
			snap.Rejected, svc.Epoch()+1)
	}

	k := *window
	if k > len(hist) {
		k = len(hist)
	}
	if win, err := svc.EstimateWindow(k); err == nil {
		fmt.Printf("\nwindow over epochs [%d, %d] (%d reports):\n", win.FromEpoch, win.ToEpoch, win.Reports)
		truth := ldp.TrueFrequencies(values, *d)
		fmt.Println("value   true-freq   window-est   all-time-est")
		for v := 0; v < 8 && v < *d; v++ {
			fmt.Printf("%5d   %9.4f   %10.4f   %12.4f\n", v, truth[v], win.Estimates[v], snap.Estimates[v])
		}
		fmt.Printf("\nall-time MSE over the full domain: %.3e (analytic at n=%d: %.3e)\n",
			ldp.MSE(truth, snap.Estimates), snap.Reports, fo.Variance(snap.Reports))
	} else {
		fmt.Printf("window query: %v\n", err)
	}
	fmt.Printf("\nper-party costs:\n%s", meter.String())
}

// printLedger prints the sealed epochs and the budget the ledger has
// spent, and returns the history it printed.
func printLedger(svc *service.Service, ledger *budget.Ledger, totalEps, totalDelta float64) []service.EpochSnapshot {
	fmt.Println("\nsealed epochs:")
	hist := svc.History()
	for _, es := range hist {
		fmt.Printf("  epoch %d: %6d reports, %4d batches, est[0]=%.4f (charged eps=%.2f)\n",
			es.Epoch, es.Reports, es.Batches, es.Estimates[0], es.Guarantee.Eps)
	}
	spent := ledger.Spent()
	fmt.Printf("ledger: spent (%.2f, %.0e) of (%.2f, %.0e)\n",
		spent.Eps, spent.Delta, totalEps, totalDelta)
	return hist
}
