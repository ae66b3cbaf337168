package service_test

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"shuffledp/internal/budget"
	"shuffledp/internal/composition"
	"shuffledp/internal/ecies"
	"shuffledp/internal/ldp"
	"shuffledp/internal/service"
)

// waitReceived blocks until the service has accepted n report frames
// into the pipeline (not necessarily folded yet).
func waitReceived(t *testing.T, svc *service.Service, n int64) {
	t.Helper()
	waitSnapshot(t, svc, "received reports", n, func(s service.Snapshot) int64 { return s.Received })
}

// waitSnapshot polls the service's snapshot until the counter read
// from it reaches n.
func waitSnapshot(t *testing.T, svc *service.Service, what string, n int64, read func(service.Snapshot) int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for read(svc.Snapshot()) < n {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d %s (have %d)", n, what, read(svc.Snapshot()))
		}
		time.Sleep(time.Millisecond)
	}
}

// The acceptance test of the window-query machinery: epochs with
// known report membership must seal to estimates bit-identical to
// offline per-epoch aggregation, and EstimateWindow(k) must be
// bit-identical to merging those k epochs' aggregates offline.
func TestEpochWindowBitIdenticalToOfflineMerge(t *testing.T) {
	const (
		d         = 48
		seed      = 77
		epochs    = 4
		perEpoch  = 700
		batchSize = 64 // does not divide perEpoch: partial batches seal too
	)
	fo := ldp.NewSOLH(d, 12, 2)
	values := make([]int, epochs*perEpoch)
	for i := range values {
		values[i] = (i * 13) % d
	}
	reports := ldp.RandomizeParallel(fo, values, seed, 0)

	key, err := ecies.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	svc, err := service.New(service.Config{
		FO: fo, Key: key, BatchSize: batchSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	clientSide, serverSide := net.Pipe()
	if err := svc.Ingest(serverSide); err != nil {
		t.Fatal(err)
	}
	cl, err := service.NewSessionClient(fo, key.Public(), nil, clientSide, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Send epoch by epoch; Rotate cuts after every frame already
	// received, so waiting on Received pins each report's epoch exactly.
	rotated := make(chan struct{})
	sendErr := make(chan error, 1)
	go func() {
		defer clientSide.Close()
		for e := 0; e < epochs; e++ {
			for _, rep := range reports[e*perEpoch : (e+1)*perEpoch] {
				if err := cl.SendReport(rep); err != nil {
					sendErr <- err
					return
				}
			}
			if err := cl.Flush(); err != nil {
				sendErr <- err
				return
			}
			sendErr <- nil
			<-rotated // main goroutine rotated; next epoch may start
		}
	}()
	for e := 0; e < epochs; e++ {
		if err := <-sendErr; err != nil {
			t.Fatal(err)
		}
		waitReceived(t, svc, int64((e+1)*perEpoch))
		if e < epochs-1 {
			snap, err := svc.Rotate()
			if err != nil {
				t.Fatal(err)
			}
			if snap.Epoch != e {
				t.Fatalf("rotation %d sealed epoch %d", e, snap.Epoch)
			}
			if snap.Reports != perEpoch {
				t.Fatalf("epoch %d sealed %d reports, want %d", e, snap.Reports, perEpoch)
			}
		}
		rotated <- struct{}{}
	}
	if _, err := svc.Drain(); err != nil {
		t.Fatal(err)
	}

	// Offline reference: one aggregator per epoch, merged with the
	// same machinery the service uses.
	offline := make([]ldp.Aggregator, epochs)
	for e := range offline {
		offline[e] = fo.NewAggregator()
		for _, rep := range reports[e*perEpoch : (e+1)*perEpoch] {
			offline[e].Add(rep)
		}
	}

	hist := svc.History()
	if len(hist) != epochs {
		t.Fatalf("history has %d epochs, want %d", len(hist), epochs)
	}
	for e, snap := range hist {
		want := offline[e].Clone().Estimates()
		if snap.Reports != perEpoch {
			t.Fatalf("epoch %d: %d reports, want %d", e, snap.Reports, perEpoch)
		}
		for v := range want {
			if snap.Estimates[v] != want[v] {
				t.Fatalf("epoch %d estimate[%d] = %v, offline %v (not bit-identical)",
					e, v, snap.Estimates[v], want[v])
			}
		}
	}

	for k := 1; k <= epochs; k++ {
		win, err := svc.EstimateWindow(k)
		if err != nil {
			t.Fatal(err)
		}
		if win.Epochs != k || win.ToEpoch != epochs-1 || win.FromEpoch != epochs-k {
			t.Fatalf("window k=%d spans [%d, %d] over %d epochs", k, win.FromEpoch, win.ToEpoch, win.Epochs)
		}
		ref := offline[epochs-k].Clone()
		for _, o := range offline[epochs-k+1:] {
			ref.Merge(o.Clone())
		}
		if win.Reports != k*perEpoch {
			t.Fatalf("window k=%d covers %d reports, want %d", k, win.Reports, k*perEpoch)
		}
		want := ref.Estimates()
		for v := range want {
			if win.Estimates[v] != want[v] {
				t.Fatalf("window k=%d estimate[%d] = %v, offline merge %v (not bit-identical)",
					k, v, win.Estimates[v], want[v])
			}
		}
	}

	// Window queries are repeatable: clone-merge must not drain the
	// sealed epochs.
	again, err := svc.EstimateWindow(epochs)
	if err != nil {
		t.Fatal(err)
	}
	full, _ := svc.EstimateWindow(0) // 0 = everything retained
	for v := range again.Estimates {
		if again.Estimates[v] != full.Estimates[v] {
			t.Fatal("repeated window query changed the result")
		}
	}
}

// The budget acceptance criterion: with total budget B and per-epoch
// eps, the service serves exactly floor(B/eps) epochs and then refuses
// ingestion; at 0.3 per epoch a fourth epoch's exact composition puts
// percents of mass past e^B, far over the total delta.
func TestServiceBudgetExhaustionFloor(t *testing.T) {
	const totalEps, perEps = 1.0, 0.3 // floor(1.0/0.3) = 3 epochs
	fo := ldp.NewGRR(8, 1)
	key, _ := ecies.GenerateKey()
	ledger, err := budget.NewLedger(
		composition.Guarantee{Eps: totalEps, Delta: 1e-6},
		composition.Guarantee{Eps: perEps, Delta: 1e-9},
	)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := service.New(service.Config{FO: fo, Key: key, Ledger: ledger})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	// Epoch 0 charged at New; two more rotations fit the budget.
	for i := 0; i < 2; i++ {
		snap, err := svc.Rotate()
		if err != nil {
			t.Fatalf("rotation %d within budget failed: %v", i, err)
		}
		if snap.Guarantee.Eps != perEps {
			t.Fatalf("sealed epoch carries guarantee eps %v, want %v", snap.Guarantee.Eps, perEps)
		}
	}
	if svc.Epoch() != 2 || svc.Exhausted() {
		t.Fatalf("after floor(B/eps) epochs: epoch %d, exhausted %v", svc.Epoch(), svc.Exhausted())
	}

	// The fourth epoch does not fit: the current epoch still seals but
	// ingestion is refused from here on.
	snap, err := svc.Rotate()
	if !errors.Is(err, budget.ErrExhausted) {
		t.Fatalf("rotation past the budget returned %v, want ErrExhausted", err)
	}
	if snap.Epoch != 2 {
		t.Fatalf("exhausting rotation sealed epoch %d, want 2", snap.Epoch)
	}
	if !svc.Exhausted() {
		t.Fatal("service not exhausted after refused charge")
	}
	a, b := net.Pipe()
	defer a.Close()
	if err := svc.Ingest(b); !errors.Is(err, budget.ErrExhausted) {
		t.Fatalf("Ingest after exhaustion returned %v, want ErrExhausted", err)
	}
	if _, err := svc.Rotate(); !errors.Is(err, budget.ErrExhausted) {
		t.Fatalf("second exhausted rotation returned %v, want ErrExhausted", err)
	}
	// Queries still work: all floor(B/eps) epochs are sealed.
	if got := len(svc.History()); got != 3 {
		t.Fatalf("history has %d sealed epochs, want floor(B/eps) = 3", got)
	}
	if _, err := svc.EstimateWindow(3); err != nil {
		t.Fatalf("window query on exhausted service: %v", err)
	}
	if _, err := svc.Drain(); err != nil {
		t.Fatal(err)
	}
}

// Exact composition lets the same total budget serve strictly more
// epochs than naive accounting's floor(B/eps) — here at the service
// level, rotating past the epoch where naive accounting refused, and on
// to exactly the epoch the ledger refuses.
func TestServiceExactCompositionOutlivesNaive(t *testing.T) {
	total := composition.Guarantee{Eps: 1, Delta: 1e-4}
	per := composition.Guarantee{Eps: 0.01, Delta: 1e-9}
	ledger, err := budget.NewLedger(total, per)
	if err != nil {
		t.Fatal(err)
	}
	const naiveMax = 100 // floor(1/0.01)
	epochs := ledger.MaxEpochs()
	if epochs <= naiveMax+5 {
		t.Fatalf("exact MaxEpochs = %d, not past naive's %d", epochs, naiveMax)
	}
	key, _ := ecies.GenerateKey()
	svc, err := service.New(service.Config{FO: ldp.NewGRR(4, 1), Key: key, Ledger: ledger})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	// Epoch 0 is paid at New; rotation i pays for epoch i+1.
	for i := 0; i < epochs; i++ {
		_, err := svc.Rotate()
		if wantExhausted := i == epochs-1; errors.Is(err, budget.ErrExhausted) != wantExhausted || (!wantExhausted && err != nil) {
			t.Fatalf("rotation %d of a %d-epoch ledger returned %v", i, epochs, err)
		}
	}
	t.Logf("B=%v: exact composition serves %d epochs of eps %v, naive %d", total.Eps, epochs, per.Eps, naiveMax)
}

// The epoch-rotation race test (run under -race): concurrent clients
// stream while the service rotates; no report may be lost, and both
// the all-time drain estimate and the all-epochs window merge must be
// bit-identical to a sequential aggregation of the full multiset —
// whatever epoch each report happened to land in.
func TestRaceIngestDuringRotate(t *testing.T) {
	const (
		d       = 32
		seed    = 99
		clients = 8
		n       = 6000
	)
	fo := ldp.NewSOLH(d, 8, 2)
	values := make([]int, n)
	for i := range values {
		values[i] = (i * 5) % d
	}
	reports, want := sequentialEstimates(fo, values, seed)

	key, err := ecies.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4)) // four workers
	svc, err := service.New(service.Config{
		FO: fo, Key: key, BatchSize: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for c := 0; c < clients; c++ {
		clientSide, serverSide := net.Pipe()
		if err := svc.Ingest(serverSide); err != nil {
			t.Fatal(err)
		}
		cl, err := service.NewSessionClient(fo, key.Public(), nil, clientSide, 0)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(c int, cl *service.Client) {
			defer wg.Done()
			defer clientSide.Close()
			for i := c; i < len(reports); i += clients {
				if err := cl.SendReport(reports[i]); err != nil {
					errc <- fmt.Errorf("client %d: %w", c, err)
					return
				}
			}
			errc <- cl.Close()
		}(c, cl)
	}

	// Rotate concurrently with the stream.
	rotateDone := make(chan struct{})
	go func() {
		defer close(rotateDone)
		for i := 0; i < 5; i++ {
			time.Sleep(3 * time.Millisecond)
			if _, err := svc.Rotate(); err != nil {
				t.Errorf("rotation %d: %v", i, err)
				return
			}
		}
	}()

	wg.Wait()
	<-rotateDone
	snap, err := svc.Drain()
	if err != nil {
		t.Fatal(err)
	}
	close(errc)
	for err := range errc {
		if err != nil {
			t.Fatal(err)
		}
	}

	if snap.Reports != n {
		t.Fatalf("drained %d reports, want %d (reports lost across rotations)", snap.Reports, n)
	}
	if snap.Late != 0 || snap.Rejected != 0 {
		t.Fatalf("unexpected drops: late %d, rejected %d", snap.Late, snap.Rejected)
	}
	for v := range want {
		if snap.Estimates[v] != want[v] {
			t.Fatalf("drain estimate[%d] = %v, sequential %v (not bit-identical)", v, snap.Estimates[v], want[v])
		}
	}
	hist := svc.History()
	if len(hist) != 6 { // 5 rotations + the final drain seal
		t.Fatalf("history has %d epochs, want 6", len(hist))
	}
	total := 0
	for _, es := range hist {
		total += es.Reports
	}
	if total != n {
		t.Fatalf("epochs sum to %d reports, want %d", total, n)
	}
	win, err := svc.EstimateWindow(len(hist))
	if err != nil {
		t.Fatal(err)
	}
	for v := range want {
		if win.Estimates[v] != want[v] {
			t.Fatalf("all-epochs window estimate[%d] = %v, sequential %v (not bit-identical)", v, win.Estimates[v], want[v])
		}
	}
}

// Reports asserting a sealed (or future) epoch are dropped and counted
// Late, never folded into the wrong collection round.
func TestLateEpochReportsDropped(t *testing.T) {
	fo := ldp.NewGRR(8, 2)
	key, _ := ecies.GenerateKey()
	svc, err := service.New(service.Config{FO: fo, Key: key, BatchSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	clientSide, serverSide := net.Pipe()
	if err := svc.Ingest(serverSide); err != nil {
		t.Fatal(err)
	}
	cl, err := service.NewSessionClient(fo, key.Public(), nil, clientSide, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Pinning the open epoch works like EpochCurrent...
	cl.SetEpoch(0)
	for i := 0; i < 6; i++ {
		if err := cl.SendReport(ldp.Report{Value: 1}); err != nil {
			t.Fatal(err)
		}
	}
	// ...but a stale epoch assertion is dropped.
	cl.SetEpoch(7)
	for i := 0; i < 4; i++ {
		if err := cl.SendReport(ldp.Report{Value: 2}); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	snap, err := svc.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Reports != 6 {
		t.Fatalf("aggregated %d reports, want the 6 current-epoch ones", snap.Reports)
	}
	if snap.Late != 4 {
		t.Fatalf("late count %d, want 4", snap.Late)
	}
	// Dropped frames must leave Received: the three counters are
	// disjoint and the drained backlog is empty.
	if snap.Received != 6 {
		t.Fatalf("received %d, want 6 (late frames must not stay counted)", snap.Received)
	}
}

// Every sealed epoch stays in the history, oldest first; a window
// cannot reach past the first sealed epoch, and the all-time drain
// estimate covers every epoch.
func TestHistoryKeepsEverySealedEpoch(t *testing.T) {
	fo := ldp.NewGRR(4, 1)
	key, _ := ecies.GenerateKey()
	svc, err := service.New(service.Config{FO: fo, Key: key})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	clientSide, serverSide := net.Pipe()
	if err := svc.Ingest(serverSide); err != nil {
		t.Fatal(err)
	}
	cl, err := service.NewSessionClient(fo, key.Public(), nil, clientSide, 0)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 4; e++ {
		if err := cl.SendReport(ldp.Report{Value: e % 4}); err != nil {
			t.Fatal(err)
		}
		if err := cl.Flush(); err != nil {
			t.Fatal(err)
		}
		waitReceived(t, svc, int64(e+1))
		if e < 3 {
			if _, err := svc.Rotate(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	snap, err := svc.Drain()
	if err != nil {
		t.Fatal(err)
	}
	hist := svc.History()
	if len(hist) != 4 {
		t.Fatalf("history holds %d epochs, want 4", len(hist))
	}
	for i, h := range hist {
		if h.Epoch != i || h.Reports != 1 {
			t.Fatalf("history[%d] = epoch %d with %d reports, want epoch %d with 1", i, h.Epoch, h.Reports, i)
		}
	}
	if _, err := svc.EstimateWindow(5); err == nil {
		t.Fatal("window past the first sealed epoch succeeded")
	}
	win, err := svc.EstimateWindow(2)
	if err != nil {
		t.Fatal(err)
	}
	if win.Reports != 2 {
		t.Fatalf("2-epoch window covers %d reports, want 2", win.Reports)
	}
	if snap.Reports != 4 {
		t.Fatalf("all-time drain covers %d reports, want 4", snap.Reports)
	}
}

// Config.EpochReports auto-rotates without explicit Rotate calls. The
// open epoch's report count advances a whole frame at a time, so the
// hint has to fire when a frame carries the count across the threshold,
// not only when it lands on it (frames of 100): frame sizes that do not
// divide the threshold — 1000 even exceeds the shuffle batch — step
// over it every epoch. The client waits out each rotation
// it knows it triggered, which makes every epoch's membership exact:
// the shortest run of whole frames that reaches the threshold.
func TestAutoRotationFiresOnCrossing(t *testing.T) {
	const (
		d        = 32
		seed     = 61
		n        = 5000
		perEpoch = 500
	)
	fo := ldp.NewSOLH(d, 8, 2)
	values := make([]int, n)
	for i := range values {
		values[i] = (i * 11) % d
	}
	reports, want := sequentialEstimates(fo, values, seed)

	for _, frame := range []int{100, 7, 256, 1000} {
		t.Run(fmt.Sprintf("frame%d", frame), func(t *testing.T) {
			newLedger := func() *budget.Ledger {
				l, err := budget.NewLedger(
					composition.Guarantee{Eps: 100, Delta: 1e-3},
					composition.Guarantee{Eps: 0.1, Delta: 1e-9},
				)
				if err != nil {
					t.Fatal(err)
				}
				return l
			}
			ledger := newLedger()
			key, _ := ecies.GenerateKey()
			svc, err := service.New(service.Config{
				FO: fo, Key: key, BatchSize: 64,
				EpochReports: perEpoch, Ledger: ledger,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()
			clientSide, serverSide := net.Pipe()
			if err := svc.Ingest(serverSide); err != nil {
				t.Fatal(err)
			}
			cl, err := service.NewSessionClient(fo, key.Public(), nil, clientSide, frame)
			if err != nil {
				t.Fatal(err)
			}

			var sealed []int // reports each auto-rotated epoch must hold
			open := 0        // reports sent into the open epoch
			frameSent := func(reports int) {
				open += reports
				if open < perEpoch {
					return
				}
				wantEpoch := len(sealed) + 1
				deadline := time.Now().Add(10 * time.Second)
				for svc.Epoch() < wantEpoch {
					if time.Now().After(deadline) {
						t.Fatalf("epoch %d holds %d >= %d reports and never rotated", wantEpoch-1, open, perEpoch)
					}
					time.Sleep(time.Millisecond)
				}
				sealed = append(sealed, open)
				open = 0
			}
			for i, rep := range reports {
				if err := cl.SendReport(rep); err != nil {
					t.Fatal(err)
				}
				if (i+1)%frame == 0 {
					frameSent(frame)
				}
			}
			if err := cl.Flush(); err != nil {
				t.Fatal(err)
			}
			frameSent(n % frame)
			if err := cl.Close(); err != nil {
				t.Fatal(err)
			}
			snap, err := svc.Drain()
			if err != nil {
				t.Fatal(err)
			}

			if len(sealed) < n/(perEpoch+frame) {
				t.Fatalf("%d auto-rotations over %d reports, want >= %d", len(sealed), n, n/(perEpoch+frame))
			}
			hist := svc.History()
			if len(hist) != len(sealed)+1 { // the drain seals the open epoch
				t.Fatalf("history has %d epochs, want %d", len(hist), len(sealed)+1)
			}
			for e, reports := range sealed {
				if hist[e].Reports != reports || reports < perEpoch || reports >= perEpoch+frame {
					t.Fatalf("epoch %d sealed %d reports, want %d in [%d, %d)", e, hist[e].Reports, reports, perEpoch, perEpoch+frame)
				}
			}
			if last := hist[len(hist)-1].Reports; last != open {
				t.Fatalf("drain-sealed epoch holds %d reports, want %d", last, open)
			}
			// Exact composition leaves most of this ledger's delta
			// unspent, so its Spent is held to a twin's paid for exactly
			// the opened epochs rather than rounded from per-epoch eps.
			twin := newLedger()
			if err := twin.PayThrough(len(hist) - 1); err != nil {
				t.Fatal(err)
			}
			if got, want := ledger.Spent(), twin.Spent(); got != want {
				t.Fatalf("ledger spent %+v, %d opened epochs spend %+v", got, len(hist), want)
			}
			win, err := svc.EstimateWindow(0)
			if err != nil {
				t.Fatal(err)
			}
			if snap.Reports != n || win.Reports != n {
				t.Fatalf("drain covers %d reports, window %d, want %d", snap.Reports, win.Reports, n)
			}
			for v := range want {
				if snap.Estimates[v] != want[v] || win.Estimates[v] != want[v] {
					t.Fatalf("estimate[%d]: drain %v, all-epochs window %v, sequential %v (not bit-identical)", v, snap.Estimates[v], win.Estimates[v], want[v])
				}
			}
		})
	}
}

// A client needs a rand only for Send; epoch stamping and rotation
// must not disturb the single-epoch bit-identity to the sequential
// aggregate — covered by the PR 2 tests in service_test.go — so here
// only the budget-at-New path: a ledger that cannot afford epoch 0
// refuses construction.
func TestNewRefusedByEmptyLedger(t *testing.T) {
	ledger, err := budget.NewLedger(
		composition.Guarantee{Eps: 0.1, Delta: 1e-6},
		composition.Guarantee{Eps: 0.3, Delta: 1e-9},
	)
	if err != nil {
		t.Fatal(err)
	}
	key, _ := ecies.GenerateKey()
	if _, err := service.New(service.Config{FO: ldp.NewGRR(4, 1), Key: key, Ledger: ledger}); !errors.Is(err, budget.ErrExhausted) {
		t.Fatalf("New with an unaffordable ledger returned %v, want ErrExhausted", err)
	}
}
