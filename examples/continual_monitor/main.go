// Command continual_monitor demonstrates the continual-observation
// tier: a population whose value distribution drifts is re-collected
// every epoch through the streaming service, a budget ledger composes
// the per-epoch privacy loss (exact composition), and sliding-
// window queries smooth the per-epoch estimates into a trend. -eps is
// the central target of one epoch: SOLH is planned for it at the -n
// reports each epoch collects (amplify.PlanShuffle). The
// monitor keeps collecting until the ledger refuses the next epoch —
// at which point the service rejects ingestion and the run shows
// exactly how many rounds the total budget bought.
//
// Usage:
//
//	continual_monitor [-n per-epoch users] [-d domain] [-eps per-epoch]
//	                  [-total total-eps] [-window k] [-seed s]
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"time"

	"shuffledp/internal/amplify"
	"shuffledp/internal/budget"
	"shuffledp/internal/composition"
	"shuffledp/internal/dataset"
	"shuffledp/internal/ecies"
	"shuffledp/internal/ldp"
	"shuffledp/internal/rng"
	"shuffledp/internal/service"
)

func main() {
	n := flag.Int("n", 800, "users reporting per epoch")
	d := flag.Int("d", 32, "domain size")
	eps := flag.Float64("eps", 1, "per-epoch central budget")
	total := flag.Float64("total", 4, "total budget across all epochs")
	window := flag.Int("window", 3, "sliding-window width (epochs)")
	seed := flag.Uint64("seed", 1, "random seed")
	flag.Parse()

	const delta = 1e-9
	ledger, err := budget.NewLedger(
		composition.Guarantee{Eps: *total, Delta: 1e-6},
		composition.Guarantee{Eps: *eps, Delta: delta},
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ledger: total eps=%.1f, per-epoch eps=%.1f, exact composition -> %d epochs\n",
		*total, *eps, ledger.MaxEpochs())

	// SOLH planned for the per-epoch budget at one epoch's reports;
	// every epoch re-collects the same population, so the budget ledger
	// is what keeps the drift watch honest over time.
	plan, err := amplify.PlanShuffle(*eps, *d, *n, delta, amplify.SOLH)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("plan at %d reports per epoch: %s\n", *n, plan)
	fo := ldp.NewSOLH(*d, plan.DPrime, plan.EpsL)
	key, err := ecies.GenerateKey()
	if err != nil {
		log.Fatal(err)
	}
	svc, err := service.New(service.Config{
		FO:        fo,
		Key:       key,
		BatchSize: 128,
		Ledger:    ledger,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer svc.Close()

	// The tracked value's popularity drifts upward epoch over epoch —
	// the trend the monitor should surface.
	const tracked = 0
	trend := func(epoch int) []int {
		ds := dataset.Synthetic("drift", *n, *d, 1.2, *seed+uint64(100*epoch))
		values := ds.Values
		boost := *n / 20 * epoch // +5% of the population per epoch
		r := rng.Substream(*seed+7, uint64(epoch))
		for i := 0; i < boost && i < len(values); i++ {
			values[r.Intn(len(values))] = tracked
		}
		return values
	}

	fmt.Printf("\nepoch   reports   true f[%d]   epoch est   window est (last %d)\n", tracked, *window)
	for epoch := 0; ; epoch++ {
		values := trend(epoch)
		clientSide, serverSide := net.Pipe()
		if err := svc.Ingest(serverSide); err != nil {
			// The ledger refused this collection round: the population's
			// reports are never accepted, let alone aggregated.
			if errors.Is(err, budget.ErrExhausted) {
				fmt.Printf("\nepoch %d refused: %v\n", epoch, err)
				break
			}
			log.Fatal(err)
		}
		cl, err := service.NewSessionClient(fo, key.Public(), nil, clientSide, 0)
		if err != nil {
			log.Fatal(err)
		}
		sendErr := make(chan error, 1)
		go func() {
			defer clientSide.Close()
			for _, rep := range ldp.RandomizeParallel(fo, values, *seed+uint64(epoch), 0) {
				if err := cl.SendReport(rep); err != nil {
					sendErr <- err
					return
				}
			}
			sendErr <- cl.Close()
		}()
		if err := <-sendErr; err != nil {
			log.Fatal(err)
		}
		// Wait for the round's reports to be accepted, then cut the
		// epoch.
		for svc.Snapshot().Received < int64((epoch+1)**n) {
			time.Sleep(time.Millisecond)
		}
		sealed, err := svc.Rotate()
		exhausted := errors.Is(err, budget.ErrExhausted)
		if err != nil && !exhausted {
			log.Fatal(err)
		}

		k := *window
		if hist := svc.History(); k > len(hist) {
			k = len(hist)
		}
		win, werr := svc.EstimateWindow(k)
		if werr != nil {
			log.Fatal(werr)
		}
		truth := ldp.TrueFrequencies(values, *d)
		fmt.Printf("%5d   %7d   %9.4f   %9.4f   %10.4f\n",
			sealed.Epoch, sealed.Reports, truth[tracked], sealed.Estimates[tracked], win.Estimates[tracked])

		if exhausted {
			fmt.Printf("\nbudget exhausted after %d epochs: %v\n", len(svc.History()), err)
			break
		}
	}

	spent := ledger.Spent()
	fmt.Printf("ledger spent (%.2f, %.1e); service exhausted: %v\n", spent.Eps, spent.Delta, svc.Exhausted())
	if _, err := svc.Drain(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sealed epochs retained: %d\n", len(svc.History()))
}
