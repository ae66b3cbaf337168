package main

import (
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"time"

	"shuffledp/internal/ecies"
	"shuffledp/internal/ldp"
	"shuffledp/internal/rng"
	"shuffledp/internal/service"
	"shuffledp/internal/store"
)

// durableSync is the WAL fsync policy of the durable workload: none,
// which still fsyncs every rotation marker and checkpoint (about 40
// fsyncs per repetition at 10 seals) but not every shuffle batch. The
// service's default, fsync per batch, is about 1000 fsyncs per
// repetition, and on the sandbox's shared disk that measured the disk:
// the same repetition took anywhere from 1.2 s to 16.9 s, and ten runs
// spread 34% — wider than any bound the contract allows. Every WAL
// code path still runs: at-rest re-seal, append, Commit's flush, the
// rotate marker, the checkpoint, segment truncation.
const durableSync = store.SyncNone

// serviceClients is the closed loop's width: C = min(2, nproc) session
// connections, each sending its next report only once the previous
// write returned, so backpressure slows the generator.
func serviceClients() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

// clientStream is client c's randomization stream in repetition rep.
// Repetitions share the dataset but not the randomness, so mse_ratio
// averages independent draws instead of repeating one.
func clientStream(seed uint64, rep, c int) *rng.Rand {
	return rng.Substream(seed, uint64(rep)<<8|uint64(c)+1)
}

// clientShare returns client c's contiguous slice of the users.
func clientShare(values []int, c, clients int) []int {
	return values[c*len(values)/clients : (c+1)*len(values)/clients]
}

// runServiceRep runs one repetition of a service workload: fresh key,
// dataset, service and listener (the set-up), then the timed window —
// first client dial to Drain returned — over loopback TCP.
func runServiceRep(w workload, seed uint64, repIdx int, tr *tracer, outDir string) (*rep, error) {
	res := newRep(tr)
	clients := serviceClients()

	// --- Set-up: everything between "process has its inputs" and the
	// first timed byte.
	setupStart := time.Now()
	key, err := ecies.GenerateKey()
	if err != nil {
		return nil, err
	}
	fo := w.fo()
	values := w.values(seed)
	cfg := service.Config{FO: fo, Key: key, ShuffleSeed: seed}
	if w.durable {
		dir, err := scratchDir(outDir, repIdx)
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		cfg.DataDir = dir
		cfg.Sync = durableSync
		cfg.EpochReports = w.epochReports
	}
	svc, err := service.New(cfg)
	if err != nil {
		return nil, err
	}
	defer svc.Close()
	var wire byteCounter
	ln, err := listenLoopback(&wire)
	if err != nil {
		return nil, err
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- svc.Serve(ln) }()
	addr := ln.Addr().String()
	res.setupS = time.Since(setupStart).Seconds()

	win := openWindow()

	// --- Timed window.
	root := tr.begin("rep", "driver", repIdx, 0)
	start := time.Now()

	var ticker *queryTicker
	if w.queryHz > 0 {
		ticker = startQueryTicker(svc, w.queryHz, start)
	}

	sp := tr.begin("submit", "driver", repIdx, root)
	errc := make(chan error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				errc <- err
				return
			}
			cl, err := service.NewSessionClient(fo, key.Public(), clientStream(seed, repIdx, c), conn, 0)
			if err != nil {
				conn.Close()
				errc <- err
				return
			}
			if err := cl.SendValues(clientShare(values, c, clients)); err != nil {
				conn.Close()
				errc <- err
				return
			}
			errc <- cl.Close()
		}(c)
	}
	wg.Wait()
	tSubmit := time.Now()
	tr.end(sp, int64(w.n))
	close(errc)
	for err := range errc {
		if err != nil {
			ticker.stop()
			return nil, fmt.Errorf("client: %w", err)
		}
	}

	// Backlog wait: Drain only waits for connections Serve has already
	// accepted, so — as the Serve contract asks — hold off until the
	// snapshot accounts for every report. Each poll sleeps half the
	// projected remaining time: a handful of snapshots per repetition,
	// so polling does not turn into a workload of its own.
	sp = tr.begin("backlog", "driver", repIdx, root)
	first := true
	for {
		snap := svc.Snapshot()
		if first {
			res.backlogAtClose = float64(snap.Received) - float64(sealedReports(svc)+snap.Reports)
			first = false
		}
		got := snap.Received + snap.Late + snap.Rejected
		if got >= int64(w.n) || svc.Err() != nil {
			break
		}
		wait := time.Millisecond
		if got > 0 {
			elapsed := time.Since(start)
			remaining := time.Duration(float64(elapsed) * float64(int64(w.n)-got) / float64(got))
			wait = min(max(remaining/2, time.Millisecond), 50*time.Millisecond)
		}
		time.Sleep(wait)
	}
	ticker.stop()
	tBacklog := time.Now()
	tr.end(sp, 0)

	sp = tr.begin("drain", "driver", repIdx, root)
	snap, drainErr := svc.Drain()
	end := time.Now()
	tr.end(sp, 0)
	tr.end(root, int64(w.n))

	// --- Untimed: bookkeeping, teardown, per-repetition gates.
	win.close(res)
	res.wallS = end.Sub(start).Seconds()
	res.phases["submit"] = tSubmit.Sub(start).Seconds()
	res.phases["backlog"] = tBacklog.Sub(tSubmit).Seconds()
	res.phases["drain"] = end.Sub(tBacklog).Seconds()
	if err := <-serveErr; err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	if drainErr != nil {
		return nil, fmt.Errorf("drain: %w", drainErr)
	}
	if ticker != nil {
		res.queryMS, res.queryLagMS = ticker.latMS, ticker.lagMS
	}
	res.wireBytes = wire.Bytes()
	res.edgeBytes = res.wireBytes
	res.estimates = snap.Estimates
	res.mseRatio = mseRatio(fo, ldp.TrueFrequencies(values, w.d), snap.Estimates, w.n)
	res.counts["batches"] = float64(snap.Batches)
	res.counts["epochs_sealed"] = float64(len(svc.History()))
	res.counts["late"] = float64(snap.Late)
	res.counts["rejected"] = float64(snap.Rejected)
	res.counts["kicked"] = float64(snap.Kicked)
	res.failed = int64(w.n-snap.Reports) + snap.Late + snap.Rejected
	if snap.Reports != w.n || snap.Received != int64(snap.Reports) || snap.Late != 0 || snap.Rejected != 0 || snap.Kicked != 0 {
		res.gateErr = fmt.Errorf("report conservation: sent %d, received %d, aggregated %d, late %d, rejected %d, kicked %d",
			w.n, snap.Received, snap.Reports, snap.Late, snap.Rejected, snap.Kicked)
	}
	return res, nil
}

// sealedReports totals the reports already sealed into History —
// mid-stream, Snapshot.Reports covers the open epoch only.
func sealedReports(svc *service.Service) int {
	total := 0
	for _, e := range svc.History() {
		total += e.Reports
	}
	return total
}

// serviceReference rebuilds repetition repIdx's estimate the slow way:
// re-randomize each client's share in order from the same rng stream
// straight into an aggregator of its own, then merge. Every oracle
// accumulates exact integers, so the service — any batch boundary, any
// worker count, any epoch cut — must match bit for bit.
func serviceReference(w workload, seed uint64, repIdx int) []float64 {
	fo := w.fo()
	values := w.values(seed)
	clients := serviceClients()
	aggs := make([]ldp.Aggregator, clients)
	var wg sync.WaitGroup
	for c := range aggs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			aggs[c] = fo.NewAggregator()
			r := clientStream(seed, repIdx, c)
			for _, v := range clientShare(values, c, clients) {
				aggs[c].Add(fo.Randomize(v, r))
			}
		}()
	}
	wg.Wait()
	for _, a := range aggs[1:] {
		aggs[0].Merge(a)
	}
	return aggs[0].Estimates()
}

// queryTicker is the benchmark's only open-loop generator: a reader
// asking for the live estimate and the two-epoch window at a fixed
// rate beside ingest, whether or not the service keeps up. Each query
// is timed from the instant it was due, so a stall charges every query
// it delayed; lagMS records how late the generator itself ran.
type queryTicker struct {
	quit         chan struct{}
	done         chan struct{}
	latMS, lagMS []float64
}

func startQueryTicker(svc *service.Service, hz int, start time.Time) *queryTicker {
	t := &queryTicker{quit: make(chan struct{}), done: make(chan struct{})}
	period := time.Second / time.Duration(hz)
	go func() {
		defer close(t.done)
		timer := time.NewTimer(0)
		defer timer.Stop()
		for k := 1; ; k++ {
			due := start.Add(time.Duration(k) * period)
			timer.Reset(time.Until(due))
			select {
			case <-t.quit:
				return
			case <-timer.C:
			}
			issued := time.Now()
			svc.Snapshot()
			// Only a full pair is a sample: before two epochs have
			// sealed EstimateWindow(2) fails fast and would drag the
			// median toward the cheaper half of the query.
			if _, err := svc.EstimateWindow(2); err != nil {
				continue
			}
			t.latMS = append(t.latMS, float64(time.Since(due).Nanoseconds())/1e6)
			t.lagMS = append(t.lagMS, float64(issued.Sub(due).Nanoseconds())/1e6)
		}
	}()
	return t
}

// stop ends the ticker and waits for its goroutine; safe on nil.
func (t *queryTicker) stop() {
	if t == nil {
		return
	}
	select {
	case <-t.quit:
	default:
		close(t.quit)
	}
	<-t.done
}
