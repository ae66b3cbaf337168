package service_test

import (
	"fmt"
	"math"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"shuffledp/internal/ecies"
	"shuffledp/internal/ldp"
	"shuffledp/internal/rng"
	"shuffledp/internal/service"
	"shuffledp/internal/store"
	"shuffledp/internal/transport"
)

// runConcurrent pushes the given pre-randomized reports through a
// service using `clients` concurrent connections (report i goes to
// client i%clients) and returns the drained snapshot.
func runConcurrent(t *testing.T, fo ldp.FrequencyOracle, reports []ldp.Report, clients int, cfg service.Config) service.Snapshot {
	t.Helper()
	key, err := ecies.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	cfg.FO = fo
	cfg.Key = key
	svc, err := service.New(cfg)
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
			// Close on every exit path: an error return that left the
			// conn open would hang Drain's wait for reader EOFs.
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

	// Poll snapshots mid-stream: ingestion must keep flowing and every
	// snapshot must be a valid partial estimate.
	quit := make(chan struct{})
	snapDone := make(chan struct{})
	go func() {
		defer close(snapDone)
		prev := 0
		for {
			snap := svc.Snapshot()
			if len(snap.Estimates) != fo.Domain() {
				t.Errorf("mid-stream snapshot has %d estimates, want %d", len(snap.Estimates), fo.Domain())
				return
			}
			if snap.Reports < prev {
				t.Errorf("snapshot reports went backwards: %d -> %d", prev, snap.Reports)
				return
			}
			prev = snap.Reports
			select {
			case <-quit:
				return
			case <-time.After(2 * time.Millisecond):
			}
		}
	}()

	snap, err := svc.Drain()
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(quit)
	<-snapDone
	close(errc)
	for err := range errc {
		if err != nil {
			t.Fatal(err)
		}
	}
	return snap
}

// sequentialEstimates is the oracle this package's bit-identity tests
// are held to: the values randomized under the engine's determinism
// contract (ldp.RandomizeParallel), folded one by one into a fresh
// aggregator. It shares no code with what it checks — no service, no
// codec, no crypto — so a defect in any of those cannot cancel out of
// the comparison. The reports are returned for the test to push
// through the service.
func sequentialEstimates(fo ldp.FrequencyOracle, values []int, seed uint64) ([]ldp.Report, []float64) {
	reports := ldp.RandomizeParallel(fo, values, seed, 0)
	agg := fo.NewAggregator()
	for _, rep := range reports {
		agg.Add(rep)
	}
	return reports, agg.Estimates()
}

// TestRaceConcurrentClientsBitIdentical is the acceptance test of the
// streaming tier (run it under -race): ten concurrent clients stream
// interleaved reports through small shuffle batches and many workers,
// and the final merged histogram must be bit-identical — every float64
// exactly equal — to the sequential aggregate of the same reports.
func TestRaceConcurrentClientsBitIdentical(t *testing.T) {
	const (
		d       = 64
		seed    = 41
		clients = 10
	)
	n := ldp.ShardSize + 1357 // cover a full and a partial randomization shard
	values := make([]int, n)
	for i := range values {
		values[i] = (i * i) % d
	}
	fo := ldp.NewSOLH(d, 16, 3)
	reports, want := sequentialEstimates(fo, values, seed)

	// The same report multiset, split across concurrent clients;
	// estimates depend only on the multiset, so the result must match
	// exactly.
	snap := runConcurrent(t, fo, reports, clients, service.Config{
		BatchSize: 128,
	})

	if snap.Reports != n {
		t.Fatalf("aggregated %d reports, want %d", snap.Reports, n)
	}
	if len(snap.Estimates) != d {
		t.Fatalf("estimate length %d, want %d", len(snap.Estimates), d)
	}
	for v := range want {
		if snap.Estimates[v] != want[v] {
			t.Fatalf("estimate[%d] = %v, sequential aggregate = %v (not bit-identical)",
				v, snap.Estimates[v], want[v])
		}
	}
}

// The GRR path must be bit-identical too (different aggregator type).
func TestRaceConcurrentClientsBitIdenticalGRR(t *testing.T) {
	const d, seed, clients, n = 16, 43, 8, 3000
	values := make([]int, n)
	for i := range values {
		values[i] = i % 5
	}
	fo := ldp.NewGRR(d, 2)
	reports, want := sequentialEstimates(fo, values, seed)
	snap := runConcurrent(t, fo, reports, clients, service.Config{
		BatchSize: 64,
	})
	for v := range want {
		if snap.Estimates[v] != want[v] {
			t.Fatalf("estimate[%d] = %v, want %v", v, snap.Estimates[v], want[v])
		}
	}
}

func TestServiceOverTCP(t *testing.T) {
	const d, n, clients = 8, 600, 3
	fo := ldp.NewGRR(d, 4)
	key, err := ecies.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	var meter transport.Meter
	svc, err := service.New(service.Config{
		FO: fo, Key: key, BatchSize: 50, Meter: &meter,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- svc.Serve(ln) }()

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Error(err)
				return
			}
			cl, err := service.NewSessionClient(fo, key.Public(), rng.New(uint64(100+c)), conn, 0)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < n/clients; i++ {
				if err := cl.Send(i % d); err != nil {
					t.Error(err)
					return
				}
			}
			if err := cl.Close(); err != nil {
				t.Error(err)
			}
		}(c)
	}
	wg.Wait()
	// The clients have written and closed, but a connection may still
	// sit in the listener backlog: account for every frame before the
	// drain cutoff (the contract documented on Serve).
	waitReceived(t, svc, n)
	snap, err := svc.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-serveDone; err != nil {
		t.Fatal(err)
	}
	if snap.Reports != n {
		t.Fatalf("aggregated %d, want %d", snap.Reports, n)
	}
	sum := 0.0
	for _, e := range snap.Estimates {
		sum += e
	}
	if math.Abs(sum-1) > 0.2 {
		t.Fatalf("estimates sum to %v, want ~1", sum)
	}
	if meter.Stats(service.PartyUsers).SentBytes == 0 ||
		meter.Stats(service.PartyServer).RecvBytes == 0 {
		t.Fatalf("meter not accounting:\n%s", meter.String())
	}
}

func TestDrainEmptyService(t *testing.T) {
	fo := ldp.NewGRR(4, 1)
	key, _ := ecies.GenerateKey()
	svc, err := service.New(service.Config{FO: fo, Key: key})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := svc.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Reports != 0 || len(snap.Estimates) != 4 {
		t.Fatalf("empty drain snapshot %+v", snap)
	}
	// Drain is idempotent.
	if _, err := svc.Drain(); err != nil {
		t.Fatal(err)
	}
	// New connections are rejected after drain.
	a, b := net.Pipe()
	defer a.Close()
	if err := svc.Ingest(b); err == nil {
		t.Fatal("Ingest accepted after Drain")
	}
}

// A client keyed to the wrong server key derives different session
// keys, so its first batch fails authentication: the connection is
// kicked, nothing it sent is aggregated, and the service itself stays
// healthy.
func TestWrongKeyReportSurfacesError(t *testing.T) {
	fo := ldp.NewGRR(4, 1)
	key, _ := ecies.GenerateKey()
	wrong, _ := ecies.GenerateKey()
	svc, err := service.New(service.Config{FO: fo, Key: key, BatchSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	clientSide, serverSide := net.Pipe()
	if err := svc.Ingest(serverSide); err != nil {
		t.Fatal(err)
	}
	cl, err := service.NewSessionClient(fo, wrong.Public(), rng.New(1), clientSide, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := cl.Send(1); err != nil {
			t.Fatal(err)
		}
	}
	// The kick closes the server side, which may race the tail of the
	// client's write; the client's own error is not the subject here.
	_ = cl.Close()
	clientSide.Close()
	snap, err := svc.Drain()
	if err != nil {
		t.Fatalf("a wrong-key client failed the whole service: %v", err)
	}
	if snap.Kicked != 1 || snap.Reports != 0 || snap.Received != 0 {
		t.Fatalf("want 1 kick and nothing aggregated, got %+v", snap)
	}
}

// An authentic session frame can still carry a word the codec refuses
// (here the first word past the SOLH report group), and any client
// holding the public key can send one. The reader's unpack refuses the
// frame whole and kicks its connection: nothing of it is logged or
// aggregated — its valid reports included — while an honest client's
// reports land, Drain returns nil, and a recovery of the WAL holds the
// honest reports alone.
func TestCorruptRecordInAuthenticBatchIsKicked(t *testing.T) {
	fo := ldp.NewSOLH(16, 5, 2)
	key, err := ecies.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	codec, err := service.NewCodec(fo)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := ldp.NewWordEncoder(fo)
	if err != nil {
		t.Fatal(err)
	}
	reports := ldp.RandomizeParallel(fo, []int{3, 5, 7}, 19, 0)
	words := []uint64{enc.Encode(reports[0]), enc.GroupOrder(), enc.Encode(reports[1]), enc.Encode(reports[2])}
	if codec.Bits() != 35 || enc.GroupOrder() >= 1<<35 {
		t.Fatalf("SOLH(16, 5) packs %d-bit words for a group of %d; the test needs the group order to fit", codec.Bits(), enc.GroupOrder())
	}
	honest := ldp.RandomizeParallel(fo, []int{1, 2, 3, 4, 5, 6, 7, 8, 9}, 23, 0)

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2)) // two workers
	cfg := service.Config{FO: fo, Key: key, BatchSize: 2, DataDir: t.TempDir(), Sync: store.SyncBatch}
	svc, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	conn, sess := sessionConn(t, svc, key)
	frame, err := sess.Seal(nil, codec.PackWords(words...))
	if err != nil {
		t.Fatal(err)
	}
	// The kick may close the pipe before the write completes.
	go func() {
		transport.WriteTaggedFrame(conn, service.EpochCurrent, frame)
		conn.Close()
	}()
	waitKicked(t, svc, 1)
	sendSession(t, svc, fo, key, honest)
	waitReceived(t, svc, int64(len(honest)))

	snap, err := svc.Drain()
	if err != nil {
		t.Fatalf("a malformed word failed the service: %v", err)
	}
	if snap.Kicked != 1 || snap.Reports != len(honest) || snap.Received != int64(len(honest)) {
		t.Fatalf("want 1 kick and exactly the %d honest reports received and aggregated, got %+v", len(honest), snap)
	}
	agg := fo.NewAggregator()
	for _, rep := range honest {
		agg.Add(rep)
	}
	sameEstimates(t, "drain estimate of the honest reports", snap.Estimates, agg.Estimates())
	svc.Close()

	rec, err := service.Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if got := rec.Snapshot().Received; got != int64(len(honest)) {
		t.Fatalf("the WAL recovers %d reports, want the %d honest ones", got, len(honest))
	}
}

// unknownOracle hides the concrete oracle type from the codec's type
// switch: a mechanism the codec has no wire format for.
type unknownOracle struct{ ldp.FrequencyOracle }

func TestNewValidation(t *testing.T) {
	key, _ := ecies.GenerateKey()
	if _, err := service.New(service.Config{Key: key}); err == nil {
		t.Error("nil oracle accepted")
	}
	if _, err := service.New(service.Config{FO: ldp.NewGRR(4, 1)}); err == nil {
		t.Error("nil key accepted")
	}
	// Only word-encoded oracles report: any other is refused by name,
	// before the service starts a goroutine.
	svc, err := service.New(service.Config{FO: unknownOracle{ldp.NewGRR(4, 1)}, Key: key})
	if svc != nil {
		svc.Close()
	}
	if err == nil || !strings.Contains(err.Error(), "oracle GRR ") {
		t.Errorf("service.New(codec-less oracle): err = %v, want a refusal naming the oracle", err)
	}
}

// Ingest racing Drain must never panic or hang: either the connection
// is registered before Drain's cutoff (and Drain waits for its EOF) or
// it is rejected — no reader may outlive Drain and write into the
// closed intake. Run under -race.
func TestIngestDrainRace(t *testing.T) {
	fo := ldp.NewGRR(4, 1)
	key, _ := ecies.GenerateKey()
	for round := 0; round < 25; round++ {
		svc, err := service.New(service.Config{FO: fo, Key: key})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for c := 0; c < 4; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				clientSide, serverSide := net.Pipe()
				if err := svc.Ingest(serverSide); err != nil {
					clientSide.Close()
					return
				}
				clientSide.Close() // immediate EOF
			}()
		}
		if _, err := svc.Drain(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
	}
}

func TestCloseAbortsPromptly(t *testing.T) {
	fo := ldp.NewGRR(4, 1)
	key, _ := ecies.GenerateKey()
	svc, err := service.New(service.Config{FO: fo, Key: key})
	if err != nil {
		t.Fatal(err)
	}
	clientSide, serverSide := net.Pipe()
	defer clientSide.Close()
	if err := svc.Ingest(serverSide); err != nil {
		t.Fatal(err)
	}
	// Client never closes; Close must still return immediately and a
	// subsequent Drain must not hang.
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		svc.Drain()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Drain hung after Close")
	}
}

// A client that stalls mid-stream (sends some reports, then goes
// silent without closing) must not pin its reader goroutine — and,
// transitively, Drain — forever. The idle deadline disconnects it,
// counts it, and the drain completes with the reports that did arrive.
func TestIdleClientDisconnectedAndDrainCompletes(t *testing.T) {
	fo := ldp.NewGRR(4, 1)
	key, _ := ecies.GenerateKey()
	svc, err := service.New(service.Config{
		FO:          fo,
		Key:         key,
		IdleTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	clientSide, serverSide := net.Pipe()
	defer clientSide.Close()
	if err := svc.Ingest(serverSide); err != nil {
		t.Fatal(err)
	}
	cl, err := service.NewSessionClient(fo, key.Public(), rng.New(1), clientSide, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Send(2); err != nil {
		t.Fatal(err)
	}
	// net.Pipe is synchronous: once Flush returns, the reader has the
	// frame. From here the client stalls without ever closing.
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}

	type result struct {
		snap service.Snapshot
		err  error
	}
	done := make(chan result, 1)
	go func() {
		snap, err := svc.Drain()
		done <- result{snap, err}
	}()
	select {
	case res := <-done:
		if res.err != nil {
			t.Fatalf("drain after idle disconnect: %v", res.err)
		}
		if res.snap.Reports != 1 || res.snap.Received != 1 {
			t.Fatalf("want the 1 pre-stall report, got %+v", res.snap)
		}
		if res.snap.IdleClosed != 1 {
			t.Fatalf("want IdleClosed=1, got %d", res.snap.IdleClosed)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Drain hung on a stalled client: idle deadline not applied")
	}
}

// Without an idle timeout a healthy slow client is never disconnected:
// gaps longer than any internal deadline are fine as long as the
// client eventually finishes.
func TestNoIdleTimeoutKeepsSlowClient(t *testing.T) {
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
	cl, err := service.NewSessionClient(fo, key.Public(), rng.New(1), clientSide, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := cl.Send(i); err != nil {
			t.Fatal(err)
		}
		if err := cl.Flush(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(30 * time.Millisecond)
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	snap, err := svc.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Reports != 3 || snap.IdleClosed != 0 {
		t.Fatalf("slow client dropped: %+v", snap)
	}
}
