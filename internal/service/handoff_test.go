package service

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"shuffledp/internal/ecies"
	"shuffledp/internal/ldp"
	"shuffledp/internal/store"
)

// The tests in this file look inside the pipeline — the batches the
// workers are handed, the shard locks, the raw counters — so they live
// in the package; everything observable from outside is tested from
// service_test.

// pipeClient ingests one end of an in-memory connection and returns a
// session client on the other, batching frame reports per frame.
func pipeClient(t *testing.T, s *Service, frame int) *Client {
	t.Helper()
	clientSide, serverSide := net.Pipe()
	if err := s.Ingest(serverSide); err != nil {
		t.Fatal(err)
	}
	cl, err := NewSessionClient(s.cfg.FO, s.cfg.Key.Public(), nil, clientSide, frame)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func waitCounter(t *testing.T, what string, load func() int64, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for load() < want {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s = %d (have %d)", what, want, load())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRaceSessionFrameHandoffBitIdentical is the conformance test of
// the frame-sized batch stage (run it under -race): connections
// whose frames are smaller than, equal to and far larger than the
// shuffle batch stream at once across a manual rotation, while one
// more connection keeps asserting epoch 0 after it was sealed. Moving
// frames instead of reports may change how records travel, never where
// they land: the estimate is bit-identical to a sequential pass, the
// counters are exact, a late frame is dropped whole, and the privacy
// unit holds — no worker is ever handed more than BatchSize records,
// however large the frame they arrived in.
func TestRaceSessionFrameHandoffBitIdentical(t *testing.T) {
	const (
		d         = 64
		seed      = 83
		batchSize = 64
		n         = 3*ldp.ShardSize/2 + 911 // streamed by the conforming connections
		early     = 150                     // sent asserting epoch 0 while it is open
		late      = 2*1000 + 333            // sent asserting epoch 0 after it sealed
	)
	frames := []int{1, 7, 256, 1000, 256, 7}
	fo := ldp.NewSOLH(d, 16, 3)
	values := make([]int, n+early+late)
	for i := range values {
		values[i] = (i * i) % d
	}
	reports := ldp.RandomizeParallel(fo, values, seed, 0)
	seq := fo.NewAggregator()
	for _, rep := range reports[:n+early] {
		seq.Add(rep)
	}
	want := seq.Estimates()

	key, err := ecies.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	// New's pipeline at three workers, with the worker loop opened up so
	// the test sees each batch at the moment a worker receives it.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	s, err := prepare(Config{FO: fo, Key: key, BatchSize: batchSize})
	if err != nil {
		t.Fatal(err)
	}
	s.cur.Store(newEpochState(0, fo, s.workers))
	s.workerPool.Go(s.workers, func(i int) {
		for eb := range s.batches {
			if recs := len(eb.run); recs > batchSize {
				t.Errorf("worker %d received a batch of %d records, BatchSize is %d", i, recs, batchSize)
			}
			s.foldBatch(i, eb)
		}
	})
	defer s.Close()

	// The stale connection's first frames assert epoch 0 while it is
	// open: accepted like any other.
	stale := pipeClient(t, s, 1000)
	stale.SetEpoch(0)
	send := func(cl *Client, reps []ldp.Report) error {
		for _, rep := range reps {
			if err := cl.SendReport(rep); err != nil {
				return err
			}
		}
		return cl.Flush()
	}
	if err := send(stale, reports[n:n+early]); err != nil {
		t.Fatal(err)
	}
	waitCounter(t, "Received", s.received.Load, early)

	// Every connection announces when it is half-way through its share
	// and keeps streaming; only its final report waits for the rotation,
	// so both epochs provably receive part of the stream.
	var streaming, halfway sync.WaitGroup
	rotated := make(chan struct{})
	errc := make(chan error, len(frames))
	for c, frame := range frames {
		cl := pipeClient(t, s, frame)
		streaming.Add(1)
		halfway.Add(1)
		go func(c int, cl *Client) {
			defer streaming.Done()
			signalled := false
			for i := c; i < n; i += len(frames) {
				if !signalled && i >= n/2 {
					halfway.Done()
					signalled = true
				}
				if i+len(frames) >= n {
					<-rotated
				}
				if err := cl.SendReport(reports[i]); err != nil {
					errc <- fmt.Errorf("client %d: %w", c, err)
					return
				}
			}
			errc <- cl.Close()
		}(c, cl)
	}

	// Cut the stream while every connection is mid-way through it, then
	// let the stale connection go on asserting the epoch just sealed.
	halfway.Wait()
	_, err = s.Rotate()
	close(rotated)
	if err != nil {
		t.Fatal(err)
	}
	if err := send(stale, reports[n+early:]); err != nil {
		t.Fatal(err)
	}
	if err := stale.Close(); err != nil {
		t.Fatal(err)
	}
	streaming.Wait()
	close(errc)
	for err := range errc {
		if err != nil {
			t.Fatal(err)
		}
	}
	snap, err := s.Drain()
	if err != nil {
		t.Fatal(err)
	}

	if snap.Reports != n+early || snap.Received != int64(snap.Reports) {
		t.Fatalf("drained %d reports with Received = %d, want both %d", snap.Reports, snap.Received, n+early)
	}
	if snap.Late != late || snap.Rejected != 0 || snap.Kicked != 0 {
		t.Fatalf("late %d, rejected %d, kicked %d; want exactly the %d reports of the stale frames late", snap.Late, snap.Rejected, snap.Kicked, late)
	}
	for v := range want {
		if snap.Estimates[v] != want[v] {
			t.Fatalf("estimate[%d] = %v, sequential %v (not bit-identical)", v, snap.Estimates[v], want[v])
		}
	}
	hist := s.History()
	if len(hist) != 2 {
		t.Fatalf("history has %d epochs, want 2", len(hist))
	}
	var batches int64
	for _, es := range hist {
		perEpoch := int64((es.Reports + batchSize - 1) / batchSize)
		if es.Batches != perEpoch {
			t.Fatalf("epoch %d: %d reports in %d batches, want %d", es.Epoch, es.Reports, es.Batches, perEpoch)
		}
		batches += perEpoch
	}
	if hist[0].Reports <= early || hist[1].Reports < len(frames) {
		t.Fatalf("rotation was not mid-stream: epochs hold %d and %d reports", hist[0].Reports, hist[1].Reports)
	}
	if snap.Batches != batches {
		t.Fatalf("forwarded %d batches, want %d", snap.Batches, batches)
	}
}

// TestIngestBackpressureBound states the tier's memory bound in
// reports. With every worker stalled on its shard, connections pushing
// as fast as they can fill the worker queue, find no free shard to fold
// into, and block: what the service has accepted but not aggregated
// stops at the runs the blocked readers hold — at most one frame each,
// plus what was left of the run before it — and the runs in the queue,
// in the workers' hands and in the batcher — connections frames and
// BatchSize * ((queuedBatchesPerWorker + 1) * workers + 1) records,
// workers being GOMAXPROCS. Close must still return at once, and every
// goroutine New started must exit.
func TestIngestBackpressureBound(t *testing.T) {
	const (
		conns     = 4
		frame     = 256
		batchSize = 64
		workers   = 2
		floor     = batchSize * ((queuedBatchesPerWorker+1)*workers + 1) // held past the readers once everything is stuck
		bound     = conns*frame + floor
	)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
	before := runtime.NumGoroutine()
	fo := ldp.NewGRR(16, 2)
	key, err := ecies.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{FO: fo, Key: key, BatchSize: batchSize})
	if err != nil {
		t.Fatal(err)
	}
	// Stall the workers: each blocks on its shard with one batch in
	// hand. (Snapshot would block on the same locks, so the test reads
	// the counter itself; nothing is aggregated, Reports stays 0.)
	shards := s.cur.Load().shards
	for _, sh := range shards {
		sh.mu.Lock()
	}
	stalled := true
	release := func() {
		if stalled {
			for _, sh := range shards {
				sh.mu.Unlock()
			}
			stalled = false
		}
	}
	defer release()
	defer s.Close()

	var clients sync.WaitGroup
	for c := 0; c < conns; c++ {
		cl := pipeClient(t, s, frame)
		clients.Add(1)
		go func() {
			defer clients.Done()
			for cl.SendReport(ldp.Report{Value: 3}) == nil {
			}
		}()
	}

	// The backlog climbs to at least the floor, never passes the bound,
	// and then stands still: every reader is blocked on the queue.
	waitCounter(t, "Received", s.received.Load, floor)
	level, steady := s.received.Load(), 0
	for deadline := time.Now().Add(10 * time.Second); steady < 50; {
		if time.Now().After(deadline) {
			t.Fatalf("backlog still growing at %d reports", level)
		}
		time.Sleep(2 * time.Millisecond)
		if now := s.received.Load(); now != level {
			level, steady = now, 0
		} else {
			steady++
		}
		if level > bound {
			t.Fatalf("backlog reached %d reports, bound is %d", level, bound)
		}
	}

	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close stuck behind the stalled pipeline")
	}
	release()
	clients.Wait()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before New", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReadersFoldWhenWorkersStall is the conformance test of the
// readers' fold (run it under -race): with the worker loop opened up and
// every worker holding the first run it took, the queue fills, and a
// reader that cuts a run finds no room and folds it itself, into a
// shard no worker holds. Every frame beyond what the queue and the
// workers' hands hold is aggregated before the workers resume; once
// they do, the drained estimate is bit-identical to a sequential pass.
func TestReadersFoldWhenWorkersStall(t *testing.T) {
	const (
		d         = 64
		seed      = 29
		batchSize = 64
		workers   = 2
		held      = (queuedBatchesPerWorker + 1) * workers * batchSize // the queue's runs and one in each worker's hand
		n         = held + 40*batchSize + 17
	)
	fo := ldp.NewSOLH(d, 16, 3)
	values := make([]int, n)
	for i := range values {
		values[i] = (i * 5) % d
	}
	reports := ldp.RandomizeParallel(fo, values, seed, 0)
	seq := fo.NewAggregator()
	for _, rep := range reports {
		seq.Add(rep)
	}
	want := seq.Estimates()
	key, err := ecies.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
	s, err := prepare(Config{FO: fo, Key: key, BatchSize: batchSize})
	if err != nil {
		t.Fatal(err)
	}
	s.cur.Store(newEpochState(0, fo, s.workers))
	resume := make(chan struct{})
	var inHand sync.WaitGroup
	inHand.Add(s.workers)
	s.workerPool.Go(s.workers, func(i int) {
		first := true
		for eb := range s.batches {
			if first {
				inHand.Done()
				<-resume
				first = false
			}
			s.foldBatch(i, eb)
		}
	})
	defer s.Close()

	// One run per frame: the reader dispatches each frame's run before
	// it reads the next. The first frames are one per worker, and the
	// rest follow once every worker holds its run: streamed at once, the
	// queue could fill before a worker took its first run, and the
	// reader would fold runs the queue was meant to hold.
	cl := pipeClient(t, s, batchSize)
	send := func(reports []ldp.Report) {
		for _, rep := range reports {
			if err := cl.SendReport(rep); err != nil {
				t.Fatal(err)
			}
		}
		if err := cl.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	send(reports[:workers*batchSize])
	inHand.Wait()
	send(reports[workers*batchSize:])
	waitCounter(t, "Received", s.received.Load, n)
	// The last n mod batchSize reports wait in the batcher's partial run.
	folded := int64(n - held - n%batchSize)
	waitCounter(t, "aggregated reports", func() int64 { return int64(s.Snapshot().Reports) }, folded)
	if got := s.Snapshot().Reports; int64(got) != folded || len(s.batches) != cap(s.batches) {
		t.Fatalf("with the workers stalled: %d reports aggregated and %d of %d runs queued, want %d and a full queue",
			got, len(s.batches), cap(s.batches), folded)
	}

	close(resume)
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	snap, err := s.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Reports != n || snap.Batches != (n+batchSize-1)/batchSize {
		t.Fatalf("drained %d reports in %d batches, want %d in %d", snap.Reports, snap.Batches, n, (n+batchSize-1)/batchSize)
	}
	for v := range want {
		if snap.Estimates[v] != want[v] {
			t.Fatalf("estimate[%d] = %v, sequential %v (not bit-identical)", v, snap.Estimates[v], want[v])
		}
	}
}

// TestRaceSessionScrubbedBuffersBitIdentical is the ownership test of
// the ingest free lists (run it under -race). Every buffer given back to
// a free list is scrubbed to all-ones first (the package's test seam),
// so a stage that gave back an opened frame before it was logged and
// batched, or a run before its fold finished, would log scrubbed bytes
// or fold scrubbed words — past the group order, a panic in the
// counting kernel, or the wrong counts. Four
// connections whose frames straddle the shuffle batch stream across a
// rotation, in memory and durable; the drained estimate, and the
// estimate a recovery replays from the WAL, must be bit-identical to
// the sequential pass.
func TestRaceSessionScrubbedBuffersBitIdentical(t *testing.T) {
	if !scrubFreed {
		t.Fatal("the scrub seam is off: use-after-give-back would go unseen")
	}
	const (
		d         = 64
		seed      = 41
		batchSize = 64
		n         = 20000
	)
	frames := []int{1, 100, 256, 1000}
	fo := ldp.NewSOLH(d, 16, 3)
	values := make([]int, n)
	for i := range values {
		values[i] = (i * 7) % d
	}
	reports := ldp.RandomizeParallel(fo, values, seed, 0)
	seq := fo.NewAggregator()
	for _, rep := range reports {
		seq.Add(rep)
	}
	want := seq.Estimates()
	same := func(what string, got []float64) {
		t.Helper()
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("%s: estimate[%d] = %v, sequential %v (not bit-identical)", what, v, got[v], want[v])
			}
		}
	}
	key, err := ecies.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	for _, dir := range []string{"", t.TempDir()} {
		cfg := Config{FO: fo, Key: key, BatchSize: batchSize, DataDir: dir, Sync: store.SyncNone}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var streaming, halfway sync.WaitGroup
		rotated := make(chan struct{})
		errc := make(chan error, len(frames))
		for c, frame := range frames {
			cl := pipeClient(t, s, frame)
			streaming.Add(1)
			halfway.Add(1)
			go func(c int, cl *Client) {
				defer streaming.Done()
				for i := c; i < n; i += len(frames) {
					if i >= n/2 && i < n/2+len(frames) {
						halfway.Done()
						<-rotated
					}
					if err := cl.SendReport(reports[i]); err != nil {
						errc <- fmt.Errorf("client %d: %w", c, err)
						return
					}
				}
				errc <- cl.Close()
			}(c, cl)
		}
		halfway.Wait()
		_, err = s.Rotate()
		close(rotated)
		if err != nil {
			t.Fatal(err)
		}
		streaming.Wait()
		close(errc)
		for err := range errc {
			if err != nil {
				t.Fatal(err)
			}
		}
		snap, err := s.Drain()
		if err != nil {
			t.Fatal(err)
		}
		if snap.Reports != n || len(s.History()) != 2 {
			t.Fatalf("drained %d reports over %d epochs, want %d over 2", snap.Reports, len(s.History()), n)
		}
		if len(s.runs) == 0 {
			t.Fatal("the run free list is empty after the drain: no run was given back")
		}
		same(fmt.Sprintf("DataDir %q", dir), snap.Estimates)
		if dir == "" {
			continue
		}
		rec, err := Recover(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if snap, err = rec.Drain(); err != nil {
			t.Fatal(err)
		}
		same("recovered", snap.Estimates)
	}
}

// TestFreeListsStayBounded: connections each push a burst of
// MaxFrame-sized frames into a stalled pipeline and hang up. Once the
// stream has drained, the spare buffers the service keeps — word runs
// on its one free list; an opened frame is its reader's own and dies
// with the connection — stay inside the in-flight bound past the
// readers (DESIGN.md §6): (queuedBatchesPerWorker + 1) * workers + 1
// runs of BatchSize words, however many runs the burst had in flight.
func TestFreeListsStayBounded(t *testing.T) {
	const (
		conns     = 6
		burst     = 3
		maxFrame  = 16 << 10
		batchSize = 512
		workers   = 2
	)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
	fo := ldp.NewGRR(16, 2)
	key, err := ecies.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{FO: fo, Key: key, BatchSize: batchSize, maxFrame: maxFrame})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	frame := (maxFrame - ecies.SessionOverhead) * 8 / int(s.codec.bits)
	shards := s.cur.Load().shards
	for _, sh := range shards {
		sh.mu.Lock()
	}
	var clients sync.WaitGroup
	errc := make(chan error, conns)
	for c := 0; c < conns; c++ {
		cl := pipeClient(t, s, frame)
		clients.Add(1)
		go func() {
			defer clients.Done()
			for i := 0; i < burst*frame; i++ {
				if err := cl.SendReport(ldp.Report{Value: i % 16}); err != nil {
					errc <- err
					return
				}
			}
			errc <- cl.Close()
		}()
	}
	// Let the stalled pipeline fill — the queue full, then every reader
	// holding the runs of a frame it cannot hand over — before the
	// workers resume.
	waitCounter(t, "Received", s.received.Load, int64(conns)*int64(frame))
	time.Sleep(50 * time.Millisecond)
	for _, sh := range shards {
		sh.mu.Unlock()
	}
	clients.Wait()
	close(errc)
	for err := range errc {
		if err != nil {
			t.Fatal(err)
		}
	}
	snap, err := s.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Reports != conns*burst*frame {
		t.Fatalf("drained %d reports, want %d", snap.Reports, conns*burst*frame)
	}
	runs := 0
	for len(s.runs) > 0 {
		runs += cap(<-s.runs)
	}
	t.Logf("the free list holds %d run words", runs)
	if bound := ((queuedBatchesPerWorker+1)*workers + 1) * batchSize; runs > bound {
		t.Fatalf("the run free list holds %d words, in-flight bound %d", runs, bound)
	}
}

// TestWorkersAndQueueFollowGOMAXPROCS pins the two sizes the service
// derives instead of taking as options: a fresh and a recovered service
// both run GOMAXPROCS workers — one aggregator shard each — behind a
// batches queue of queuedBatchesPerWorker slots per worker.
func TestWorkersAndQueueFollowGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	fo := ldp.NewGRR(16, 2)
	key, err := ecies.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		cfg := Config{FO: fo, Key: key, DataDir: t.TempDir()}
		for _, build := range []struct {
			name string
			fn   func(Config) (*Service, error)
		}{{"New", New}, {"Recover", Recover}} {
			s, err := build.fn(cfg)
			if err != nil {
				t.Fatalf("GOMAXPROCS=%d: %s: %v", procs, build.name, err)
			}
			shards, queue := len(s.cur.Load().shards), cap(s.batches)
			s.Close()
			if shards != procs || queue != queuedBatchesPerWorker*procs {
				t.Fatalf("GOMAXPROCS=%d: %s built %d shards and a %d-batch queue, want %d and %d",
					procs, build.name, shards, queue, procs, queuedBatchesPerWorker*procs)
			}
		}
	}
}

// TestIngestAllocsPerReport pins the steady-state allocation cost of
// the session ingest path at (almost) nothing: a reader reuses its
// opened frame's buffers and runs come back through a free list, so
// neither a frame nor a batch allocates once the list has warmed. The
// figure covers the whole process — client, in-memory connection,
// reader, workers — so it is an upper bound on the service's share; what is
// left is the run free list growing to the backlog's high-water mark, a
// bounded number of runs per service, not per report.
func TestIngestAllocsPerReport(t *testing.T) {
	ingestAllocsPerReport(t, Config{})
}

// TestDurableIngestAllocsPerReport is the same pin with the WAL on: the
// at-rest seal, the record's framing and the append reuse their buffers
// too, so logging every frame adds no allocation.
func TestDurableIngestAllocsPerReport(t *testing.T) {
	ingestAllocsPerReport(t, Config{DataDir: t.TempDir(), Sync: store.SyncNone})
}

func ingestAllocsPerReport(t *testing.T, cfg Config) {
	t.Helper()
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const (
		warm = 4 * DefaultBatchSize
		n    = 200 * DefaultClientBatch
	)
	key, err := ecies.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	cfg.FO, cfg.Key = ldp.NewSOLH(64, 16, 3), key
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cl := pipeClient(t, s, 0)
	rep := ldp.Report{Seed: 5, Value: 2}
	sent := int64(0)
	push := func(reports int64) {
		for i := int64(0); i < reports; i++ {
			if err := cl.SendReport(rep); err != nil {
				t.Fatal(err)
			}
		}
		sent += reports
		waitCounter(t, "Received", s.received.Load, sent)
	}
	push(warm)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	push(n)
	runtime.ReadMemStats(&m1)
	perReport := float64(m1.Mallocs-m0.Mallocs) / n
	t.Logf("%.4f allocations per report", perReport)
	if perReport > 0.001 {
		t.Fatalf("%.4f heap allocations per report on the ingest path, want <= 0.001 (nothing per frame or batch)", perReport)
	}
}

// durableShell is prepare plus what New adds for a durable service — a
// fresh store under a temp directory, the at-rest sealer, epoch 0 — with
// no pipeline goroutine started, so a test can run the stages itself.
func durableShell(t *testing.T, cfg Config) *Service {
	t.Helper()
	cfg.DataDir = t.TempDir()
	s, err := prepare(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.st, err = store.Create(cfg.DataDir, s.storeMeta(), cfg.Sync); err != nil {
		t.Fatal(err)
	}
	if s.sealer, err = ecies.NewStorageSealer(cfg.Key); err != nil {
		t.Fatal(err)
	}
	s.cur.Store(newEpochState(0, cfg.FO, s.workers))
	return s
}

// TestLogFrameAllocsPerFrame pins the durable tier's unit of work: the
// batch stage's seal + append step allocates nothing per frame once its
// buffers have grown, whether the frame carries 1, 256 or 4096 reports —
// the sealer keeps its nonce and the store frames the record in its own
// scratch. Per-report logging would show up here as a count that grows
// with the frame.
func TestLogFrameAllocsPerFrame(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	key, err := ecies.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	s := durableShell(t, Config{FO: ldp.NewSOLH(1024, 16, 3), Key: key, Sync: store.SyncNone})
	defer s.st.Close()
	for _, reports := range []int{1, 256, 4096} {
		frame := make([]byte, (reports*int(s.codec.bits)+7)/8)
		perFrame := testing.AllocsPerRun(50, func() {
			if err := s.logFrame(0, frame, reports); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d reports per frame: %.0f allocations per frame", reports, perFrame)
		if perFrame != 0 {
			t.Fatalf("logging a frame of %d reports took %.0f allocations, want 0", reports, perFrame)
		}
	}
	if want := int64(51 * (1 + 256 + 4096)); s.wal.received != want {
		t.Fatalf("wal.received = %d after logging %d reports", s.wal.received, want)
	}
}

// TestFrameLoggedBeforeFirstBatch holds the write-ahead order at the
// frame's grain: a frame's record is appended before the first of its
// reports is batched and committed before its first batch is sent. One
// frame of 256 reports crosses four shuffle batches of 64; at the moment
// a worker is handed any of them — the first included — the segment on
// disk already holds the whole frame, sealed: every record of the batch
// is in it, and so are the 192 reports still to be batched.
func TestFrameLoggedBeforeFirstBatch(t *testing.T) {
	const (
		frame     = 256
		batchSize = 64
	)
	fo := ldp.NewSOLH(64, 16, 3)
	key, err := ecies.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s := durableShell(t, Config{FO: fo, Key: key, BatchSize: batchSize, Sync: store.SyncNone})

	// onDisk opens every sealed record of the live segment, as committed
	// so far, into the set of report words it holds.
	onDisk := func() map[uint64]int {
		copyDir := t.TempDir()
		segs, err := filepath.Glob(filepath.Join(s.cfg.DataDir, "wal-*.log"))
		if err != nil || len(segs) != 1 {
			t.Errorf("WAL segments %v (%v), want the one open segment", segs, err)
			return nil
		}
		data, err := os.ReadFile(segs[0])
		if err == nil {
			err = os.WriteFile(filepath.Join(copyDir, filepath.Base(segs[0])), data, 0o644)
		}
		if err != nil {
			t.Error(err)
			return nil
		}
		st, rec, err := store.Open(copyDir, s.storeMeta(), store.SyncNone)
		if err != nil {
			t.Error(err)
			return nil
		}
		defer st.Close()
		held := map[uint64]int{}
		for _, r := range rec.Tail {
			pt, err := s.sealer.Open(nil, r.Payload)
			if err != nil || r.Type != store.RecordSealedReport {
				t.Errorf("WAL record of type %d does not open as a sealed frame: %v", r.Type, err)
				return nil
			}
			words, err := s.codec.unpack(nil, pt)
			if err != nil {
				t.Errorf("WAL record does not unpack: %v", err)
				return nil
			}
			for _, w := range words {
				held[w]++
			}
		}
		return held
	}

	batches := 0
	s.workerPool.Go(s.workers, func(i int) {
		for eb := range s.batches {
			held := onDisk()
			logged := 0
			for _, n := range held {
				logged += n
			}
			if logged != frame {
				t.Errorf("batch %d reached a worker with %d reports on disk, want the whole frame of %d", batches, logged, frame)
			}
			for _, w := range eb.run {
				if held[w] == 0 {
					t.Errorf("batch %d carries a report the committed WAL does not hold", batches)
					break
				}
			}
			batches++
			s.foldBatch(i, eb)
		}
	})
	defer s.Close()

	cl := pipeClient(t, s, frame)
	for i := 0; i < frame; i++ {
		if err := cl.SendReport(ldp.Report{Seed: uint32(i), Value: i % 16}); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	snap, err := s.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Reports != frame || batches != frame/batchSize {
		t.Fatalf("drained %d reports in %d batches, want %d in %d", snap.Reports, batches, frame, frame/batchSize)
	}
}
