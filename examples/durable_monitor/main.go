// Command durable_monitor demonstrates crash recovery in the durable
// continual-observation tier: the same drifting click-stream is run
// twice through the epochal service — once uninterrupted (the
// reference), once durably with the service hard-killed mid-stream
// (simulated power cut: no flush, no seal, no goodbye) and restarted
// with service.Recover. The client resumes from Snapshot().Received,
// the count of durably logged reports, so every report lands exactly
// once; the demo then asserts that the sliding-window estimate, the
// sealed-epoch history, and the remaining privacy budget are
// bit-identical to the run that never crashed, and exits non-zero if
// any of them drifted (the CI recovery smoke job runs it).
//
// Each epoch releases one estimate over its -n reports, so SOLH is
// planned (amplify.PlanShuffle) for a per-epoch central ε of 1 at -n
// reports, and the ledger charges that target per epoch.
//
// Usage:
//
//	durable_monitor [-n per-epoch users] [-d domain] [-epochs e]
//	                [-kill fraction] [-fsync always|batch|none] [-seed s]
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"path/filepath"
	"time"

	"shuffledp/internal/amplify"
	"shuffledp/internal/budget"
	"shuffledp/internal/composition"
	"shuffledp/internal/ecies"
	"shuffledp/internal/ldp"
	"shuffledp/internal/service"
	"shuffledp/internal/store"
)

func main() {
	n := flag.Int("n", 600, "users reporting per epoch")
	d := flag.Int("d", 32, "domain size")
	epochs := flag.Int("epochs", 3, "collection rounds")
	kill := flag.Float64("kill", 0.55, "fraction of the stream after which the service is killed")
	fsync := flag.String("fsync", "batch", "WAL fsync policy: always, batch, or none")
	seed := flag.Uint64("seed", 1, "random seed")
	flag.Parse()
	if *epochs < 2 {
		*epochs = 2
	}

	const (
		perEps   = 1.0
		perDelta = 1e-9
	)
	plan, err := amplify.PlanShuffle(perEps, *d, *n, perDelta, amplify.SOLH)
	if err != nil {
		log.Fatalf("planning eps %g at %d reports per epoch: %v", perEps, *n, err)
	}
	fo := ldp.NewSOLH(*d, plan.DPrime, plan.EpsL)
	key, err := ecies.GenerateKey()
	if err != nil {
		log.Fatal(err)
	}
	sync, err := store.ParseSyncPolicy(*fsync)
	if err != nil {
		log.Fatal(err)
	}

	// Pre-randomize the whole stream once: both runs must see the
	// exact same report multiset for bit-identity to be checkable.
	total := *n * *epochs
	values := make([]int, total)
	for i := range values {
		values[i] = (i*i + i/7) % *d
	}
	reports := ldp.RandomizeParallel(fo, values, *seed, 0)
	killAt := int(float64(total) * *kill)
	if killAt < 1 {
		killAt = 1
	}

	newLedger := func() *budget.Ledger {
		l, err := budget.NewLedger(
			composition.Guarantee{Eps: perEps * float64(*epochs), Delta: 1e-6},
			composition.Guarantee{Eps: perEps, Delta: perDelta},
			budget.Naive{},
		)
		if err != nil {
			log.Fatal(err)
		}
		return l
	}
	config := func(ledger *budget.Ledger, dir string) service.Config {
		return service.Config{
			FO: fo, Key: key, BatchSize: 64,
			Ledger: ledger, DataDir: dir, Sync: sync,
		}
	}

	fmt.Printf("plan at %d reports per epoch: %s\n", *n, plan)
	fmt.Printf("durable monitor: %d reports over %d epochs, kill at report %d, fsync=%s\n\n",
		total, *epochs, killAt, sync)

	// Run 1: the reference that never crashes.
	refLedger := newLedger()
	ref, err := service.New(config(refLedger, ""))
	if err != nil {
		log.Fatal(err)
	}
	refSnap := drive(ref, fo, key, reports, *n, -1)
	refWin := window(ref)
	fmt.Printf("reference:  %d epochs sealed, window est[0]=%.6f, drain est[0]=%.6f\n",
		len(ref.History()), refWin.Estimates[0], refSnap.Estimates[0])

	// Run 2: durable, killed mid-stream, recovered, resumed.
	dir, err := os.MkdirTemp("", "durable-monitor-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	dir = filepath.Join(dir, "state")

	svc, err := service.New(config(newLedger(), dir))
	if err != nil {
		log.Fatal(err)
	}
	drive(svc, fo, key, reports, *n, killAt)
	fmt.Printf("\n*** hard-killing the service at report %d (no flush, no seal) ***\n", killAt)
	svc.Crash()

	recLedger := newLedger()
	svc, err = service.Recover(config(recLedger, dir))
	if err != nil {
		log.Fatalf("recovery failed: %v", err)
	}
	durable := svc.Snapshot().Received
	fmt.Printf("recovered: epoch %d open, %d of %d sent reports were durable, %d epochs sealed\n",
		svc.Epoch(), durable, killAt, len(svc.History()))
	fmt.Printf("resuming the stream at report %d\n\n", durable)
	snap := drive(svc, fo, key, reports, *n, -1)
	win := window(svc)
	fmt.Printf("recovered:  %d epochs sealed, window est[0]=%.6f, drain est[0]=%.6f\n",
		len(svc.History()), win.Estimates[0], snap.Estimates[0])

	// The whole point: bit-identical, not merely close.
	fail := false
	check := func(label string, got, want []float64) {
		for v := range want {
			if got[v] != want[v] {
				fmt.Printf("MISMATCH %s[%d]: %v != %v\n", label, v, got[v], want[v])
				fail = true
				return
			}
		}
		fmt.Printf("ok: %s bit-identical across the crash\n", label)
	}
	check("window estimate", win.Estimates, refWin.Estimates)
	check("all-time estimate", snap.Estimates, refSnap.Estimates)
	if len(svc.History()) != len(ref.History()) {
		fmt.Printf("MISMATCH: %d sealed epochs vs reference %d\n", len(svc.History()), len(ref.History()))
		fail = true
	}
	if got, want := recLedger.Remaining(), refLedger.Remaining(); got != want {
		fmt.Printf("MISMATCH remaining budget: %+v != %+v\n", got, want)
		fail = true
	} else {
		fmt.Printf("ok: remaining budget (%.4g, %.3g) bit-identical across the crash\n", got.Eps, got.Delta)
	}
	if fail {
		os.Exit(1)
	}
}

// drive streams reports into svc, rotating every perEpoch reports,
// starting from the service's durable Received count. killAt >= 0
// stops after that many total reports without draining (the caller
// crashes the service); killAt < 0 finishes the stream and drains.
func drive(svc *service.Service, fo ldp.FrequencyOracle, key *ecies.PrivateKey, reports []ldp.Report, perEpoch, killAt int) service.Snapshot {
	sent := int(svc.Snapshot().Received)
	target := len(reports)
	if killAt >= 0 && killAt < target {
		target = killAt
	}
	for sent < target {
		// Epoch boundaries sit at multiples of perEpoch; rotations are
		// driven manually at exactly those counts so both runs cut the
		// stream identically.
		bound := (sent/perEpoch + 1) * perEpoch
		if bound > target {
			bound = target
		}
		send(svc, fo, key, reports[sent:bound])
		sent = bound
		if sent%perEpoch == 0 && sent < len(reports) {
			if _, err := svc.Rotate(); err != nil {
				log.Fatalf("rotating at %d: %v", sent, err)
			}
			fmt.Printf("  sealed epoch %d at report %d\n", svc.Epoch()-1, sent)
		}
	}
	if killAt >= 0 {
		return service.Snapshot{}
	}
	snap, err := svc.Drain()
	if err != nil {
		log.Fatal(err)
	}
	return snap
}

// send pushes one slice of reports over a fresh connection and waits
// until the service has accepted them all.
func send(svc *service.Service, fo ldp.FrequencyOracle, key *ecies.PrivateKey, reports []ldp.Report) {
	if len(reports) == 0 {
		return
	}
	before := svc.Snapshot().Received
	clientSide, serverSide := net.Pipe()
	if err := svc.Ingest(serverSide); err != nil {
		log.Fatal(err)
	}
	// Session wire: one handshake, then AEAD-sealed batches — the WAL
	// still never holds plaintext (session reports are re-sealed under
	// the at-rest storage key before logging).
	cl, err := service.NewSessionClient(fo, key.Public(), nil, clientSide, 0)
	if err != nil {
		log.Fatal(err)
	}
	for _, rep := range reports {
		if err := cl.SendReport(rep); err != nil {
			log.Fatal(err)
		}
	}
	if err := cl.Close(); err != nil {
		log.Fatal(err)
	}
	for svc.Snapshot().Received < before+int64(len(reports)) {
		time.Sleep(time.Millisecond)
	}
}

// window merges every sealed epoch.
func window(svc *service.Service) service.WindowSnapshot {
	win, err := svc.EstimateWindow(0)
	if err != nil {
		log.Fatal(err)
	}
	return win
}
