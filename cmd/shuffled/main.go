// Command shuffled runs the shuffle model as a real streaming
// deployment over TCP loopback (Figure 1 of the paper, §III): the
// analysis server hosts the internal/service ingestion tier — the
// shuffler and the server in one trusted process, a batch stage plus a
// decode/aggregate worker pool — and several concurrent collector
// gateways stream the users' reports into it in session-sealed
// batches. At each epoch cut the driver prints counters only (epoch,
// reports received, batches): an open epoch's estimate is no planned
// release. Drain prints the final histogram and the per-party cost
// account (transport.Meter).
//
// The run is continual: the stream is cut into -epochs collection
// rounds, a budget ledger composes each epoch's (eps, delta) exactly
// against -total-eps and -epochs times -delta, and the sealed epochs
// answer sliding-window queries. The driver cuts every epoch itself:
// the gateways connect once and send each epoch's share, and once the
// service accounts for all of it the driver calls Rotate (Drain after
// the last), so each epoch holds ⌊n/epochs⌋ reports, plus one for the
// first n mod epochs epochs. -eps is the central target of one epoch,
// so SOLH is planned (amplify.PlanShuffle) at the ⌊n/epochs⌋ reports
// the smallest epoch seals, not at all n users. With -total-eps too
// small for the epoch count the service demonstrates budget
// exhaustion: it seals what the ledger affords and rejects the rest of
// the stream.
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
// directory for the multi-terminal walkthrough: the analyzer plans from
// the §VI-D targets and writes the plan beside its public key, and
// shufflers and clients read it there. Without a subcommand
// the binary keeps its original single-node streaming behavior below.
//
// Usage:
//
//	shuffled [-n users] [-d domain] [-eps epsC] [-seed s] [-clients c]
//	         [-epochs e] [-total-eps B] [-window k]
//	         [-data-dir dir] [-fsync always|batch|none]
//	shuffled analyzer|shuffler|client [role flags; -h lists them]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
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
	if len(os.Args) < 2 {
		runService(nil, os.Stdout)
		return
	}
	var err error
	switch os.Args[1] {
	case "analyzer":
		_, _, _, err = runAnalyzer(os.Args[2:], os.Stdout)
	case "shuffler":
		err = runShuffler(os.Args[2:], os.Stdout)
	case "client":
		err = runClient(os.Args[2:], os.Stdout)
	default:
		runService(os.Args[1:], os.Stdout)
	}
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// runService is the single-node streaming service, the binary's mode
// without a subcommand. It returns the plan it ran and the epochs it
// sealed.
func runService(args []string, out io.Writer) (amplify.Plan, []service.EpochSnapshot) {
	fs := flag.NewFlagSet("shuffled", flag.ExitOnError)
	n := fs.Int("n", 20000, "number of users")
	d := fs.Int("d", 64, "domain size")
	epsC := fs.Float64("eps", 1, "per-epoch central privacy budget")
	delta := fs.Float64("delta", 1e-9, "DP failure probability")
	seed := fs.Uint64("seed", 1, "random seed")
	clients := fs.Int("clients", 8, "concurrent collector connections")
	epochs := fs.Int("epochs", 3, "collection rounds to cut the stream into")
	totalEps := fs.Float64("total-eps", 0, "total privacy budget across epochs (0: exactly -epochs rounds of -eps)")
	window := fs.Int("window", 2, "sliding-window width for the final window query")
	dataDir := fs.String("data-dir", "", "durable state directory (WAL + checkpoints); empty runs in-memory")
	fsync := fs.String("fsync", "batch", "WAL fsync policy: always (every accepted frame before any of its reports is batched), batch (every run handed to the workers), or none (epoch seals only)")
	fs.Parse(args)
	if *clients < 1 {
		*clients = 1
	}
	if *epochs < 1 {
		*epochs = 1
	}

	values := dataset.Synthetic("demo", *n, *d, 1.3, *seed).Values

	// Plan SOLH for the per-epoch central budget at the reports the
	// smallest epoch seals: a release aggregates its epoch's reports,
	// not all -n users.
	epochReports := *n / *epochs
	plan, err := amplify.PlanShuffle(*epsC, *d, epochReports, *delta, amplify.SOLH)
	if err != nil {
		log.Fatalf("planning -eps %g at %d reports per epoch: %v", *epsC, epochReports, err)
	}
	// The ledger charges the target the plan was solved for. The forward
	// bound lands a few ulps either side of it, and charging one a few
	// ulps above -eps would make -total-eps = k·eps admit k-1 epochs.
	if math.Abs(plan.Achieved.EpsC-*epsC) > 1e-12 {
		log.Fatalf("plan %s misses -eps %g", plan, *epsC)
	}
	fo := ldp.NewSOLH(*d, plan.DPrime, plan.EpsL)
	fmt.Fprintf(out, "plan at %d reports per epoch (delta=%.0e): %s\n", epochReports, *delta, plan)

	// The cross-epoch ledger: by default budget exactly -epochs rounds,
	// each spending -delta.
	if *totalEps <= 0 {
		*totalEps = *epsC * float64(*epochs)
	}
	totalDelta := *delta * float64(*epochs)
	ledger, err := budget.NewLedger(
		composition.Guarantee{Eps: *totalEps, Delta: totalDelta},
		composition.Guarantee{Eps: *epsC, Delta: *delta},
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(out, "budget ledger: total eps=%.2f, per-epoch eps=%.2f, exact composition admits %d epochs\n",
		*totalEps, *epsC, ledger.MaxEpochs())

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
		FO:      fo,
		Key:     key,
		Meter:   &meter,
		Ledger:  ledger,
		DataDir: *dataDir,
		Sync:    syncPolicy,
	}
	svc, err := service.New(cfg)
	if *dataDir != "" && errors.Is(err, store.ErrExists) {
		// The directory holds a previous run: recover it instead of
		// starting over.
		svc, err = service.Recover(cfg)
		if err == nil {
			snap := svc.Snapshot()
			open := fmt.Sprintf("epoch %d open", snap.Epoch)
			if svc.Exhausted() {
				// Its last epoch is sealed and the budget admits no next one.
				open = "no epoch open"
			}
			fmt.Fprintf(out, "recovered durable state from %s: %s, %d reports durable, %d epochs sealed\n",
				*dataDir, open, snap.Received, len(svc.History()))
		}
	}
	if err != nil {
		log.Fatal(err)
	}
	if *dataDir != "" {
		fmt.Fprintf(out, "durable: WAL + checkpoints under %s (fsync=%s)\n", *dataDir, syncPolicy)
	}
	if svc.Exhausted() {
		// A recovered run whose budget ran out refuses every gateway:
		// report what it sealed and stop.
		fmt.Fprintln(out, "budget exhausted: the recovered service admits no more reports")
		hist := printLedger(out, svc, ledger, *totalEps, totalDelta)
		svc.Close()
		return plan, hist
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(out, "ingestion service listening on %s (%d gateways, %d epochs of at least %d reports)\n",
		ln.Addr(), *clients, *epochs, epochReports)
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

	// Each gateway connects once and, for every epoch, sends its share
	// of the epoch's reports and flushes; the driver cuts the epoch once
	// the service accounts for every report sent so far. Received, Late
	// and Rejected are disjoint, so their sum is every report the
	// readers have handed on, and a Rotate cuts after all of them.
	gateways := make([]*service.Client, *clients)
	for c := range gateways {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			log.Fatal(err)
		}
		if gateways[c], err = service.NewSessionClient(fo, key.Public(), nil, conn, 0); err != nil {
			log.Fatal(err)
		}
	}
	start := svc.Snapshot()
	accounted := start.Received + start.Late + start.Rejected
	end := 0
	for e := 0; e < *epochs; e++ {
		from := end
		end += epochReports
		if e < *n%*epochs {
			end++
		}
		var wg sync.WaitGroup
		for c, cl := range gateways {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := from + c; i < end; i += *clients {
					if err := cl.SendReport(reports[i]); err != nil {
						log.Fatalf("gateway %d: %v", c, err)
					}
				}
				if err := cl.Flush(); err != nil {
					log.Fatalf("gateway %d: %v", c, err)
				}
			}()
		}
		wg.Wait()
		snap := svc.Snapshot()
		for ; snap.Received+snap.Late+snap.Rejected < accounted+int64(end); snap = svc.Snapshot() {
			time.Sleep(time.Millisecond)
		}
		fmt.Fprintf(out, "  snapshot: epoch %d, %6d reports received, %d batches\n",
			snap.Epoch, snap.Received, snap.Batches)
		// An exhausting rotation still seals the epoch; from then on
		// the service rejects, and counts, the rest of the stream.
		if e < *epochs-1 {
			if _, err := svc.Rotate(); err != nil && !errors.Is(err, budget.ErrExhausted) {
				log.Fatal(err)
			}
		}
	}
	for c, cl := range gateways {
		if err := cl.Close(); err != nil {
			log.Fatalf("gateway %d close: %v", c, err)
		}
	}
	snap, err := svc.Drain()
	if err != nil {
		log.Fatal(err)
	}
	if err := <-serveDone; err != nil {
		log.Fatal(err)
	}

	hist := printLedger(out, svc, ledger, *totalEps, totalDelta)
	if svc.Exhausted() {
		fmt.Fprintf(out, "budget exhausted: %d reports rejected after the ledger refused epoch %d\n",
			snap.Rejected, svc.Epoch()+1)
	}

	k := *window
	if k > len(hist) {
		k = len(hist)
	}
	if win, err := svc.EstimateWindow(k); err == nil {
		fmt.Fprintf(out, "\nwindow over epochs [%d, %d] (%d reports):\n", win.FromEpoch, win.ToEpoch, win.Reports)
		truth := ldp.TrueFrequencies(values, *d)
		fmt.Fprintln(out, "value   true-freq   window-est   all-time-est")
		for v := 0; v < 8 && v < *d; v++ {
			fmt.Fprintf(out, "%5d   %9.4f   %10.4f   %12.4f\n", v, truth[v], win.Estimates[v], snap.Estimates[v])
		}
		fmt.Fprintf(out, "\nall-time MSE over the full domain: %.3e (analytic at n=%d: %.3e)\n",
			ldp.MSE(truth, snap.Estimates), snap.Reports, fo.Variance(snap.Reports))
	} else {
		fmt.Fprintf(out, "window query: %v\n", err)
	}
	fmt.Fprintf(out, "\nper-party costs:\n%s", meter.String())
	return plan, hist
}

// printLedger prints the sealed epochs and the budget the ledger has
// spent, and returns the history it printed.
func printLedger(out io.Writer, svc *service.Service, ledger *budget.Ledger, totalEps, totalDelta float64) []service.EpochSnapshot {
	fmt.Fprintln(out, "\nsealed epochs:")
	hist := svc.History()
	for _, es := range hist {
		fmt.Fprintf(out, "  epoch %d: %6d reports, %4d batches, est[0]=%.4f (charged eps=%.2f)\n",
			es.Epoch, es.Reports, es.Batches, es.Estimates[0], es.Guarantee.Eps)
	}
	spent := ledger.Spent()
	fmt.Fprintf(out, "ledger: spent (%.2f, %.0e) of (%.2f, %.0e)\n",
		spent.Eps, spent.Delta, totalEps, totalDelta)
	return hist
}
