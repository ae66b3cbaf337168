package service_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"shuffledp/internal/ecies"
	"shuffledp/internal/ldp"
	"shuffledp/internal/service"
	"shuffledp/internal/store"
	"shuffledp/internal/transport"
)

// runSessionClients pushes pre-randomized reports through a service
// with one session connection per entry of batchSizes, each batching
// that many reports per frame. Report i goes to client
// i%len(batchSizes). Returns the drained snapshot.
func runSessionClients(t *testing.T, fo ldp.FrequencyOracle, reports []ldp.Report, batchSizes []int, cfg service.Config) service.Snapshot {
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

	clients := len(batchSizes)
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for c := 0; c < clients; c++ {
		clientSide, serverSide := net.Pipe()
		if err := svc.Ingest(serverSide); err != nil {
			t.Fatal(err)
		}
		cl, err := service.NewSessionClient(fo, key.Public(), nil, clientSide, batchSizes[c])
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
			// Close flushes the residual partial batch before EOF.
			errc <- cl.Close()
		}(c, cl)
	}

	snap, err := svc.Drain()
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		if err != nil {
			t.Fatal(err)
		}
	}
	return snap
}

// TestRaceSessionBatchedBitIdentical is the conformance test of the
// session wire protocol (run it under -race): concurrent session
// clients with wildly different batch sizes — including batch 1, so
// single-report frames and ragged final flushes are all exercised —
// and a lone connection at every default (client batch, service
// BatchSize) must each produce a histogram bit-identical to the
// sequential aggregate of the same report multiset. Batching may
// change how bytes move, never what the estimates are.
func TestRaceSessionBatchedBitIdentical(t *testing.T) {
	const (
		d    = 64
		seed = 47
	)
	n := ldp.ShardSize + 1357
	values := make([]int, n)
	for i := range values {
		values[i] = (i * i) % d
	}
	fo := ldp.NewSOLH(d, 16, 3)
	reports, want := sequentialEstimates(fo, values, seed)

	for _, tc := range []struct {
		name       string
		batchSizes []int
		cfg        service.Config
	}{
		{"mixed", []int{1, 3, 16, 64, 256, 500, 7, 32, 128, 2}, service.Config{BatchSize: 128}},
		{"single-default", []int{0}, service.Config{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			snap := runSessionClients(t, fo, reports, tc.batchSizes, tc.cfg)
			if snap.Reports != n {
				t.Fatalf("aggregated %d reports, want %d", snap.Reports, n)
			}
			if snap.Kicked != 0 {
				t.Fatalf("conforming session clients were kicked: %d", snap.Kicked)
			}
			for v := range want {
				if snap.Estimates[v] != want[v] {
					t.Fatalf("estimate[%d] = %v, sequential aggregate = %v (not bit-identical)", v, snap.Estimates[v], want[v])
				}
			}
		})
	}
}

// flakyWriter records whole successful writes and fails the write at
// index failAt, accepting only `partial` bytes of it first — the
// short-write-plus-error shape a real connection dies with.
type flakyWriter struct {
	calls   [][]byte
	failAt  int
	partial int
}

var errFlaky = errors.New("flaky: connection reset by peer")

func (w *flakyWriter) Write(p []byte) (int, error) {
	if len(w.calls) >= w.failAt {
		n := w.partial
		if n > len(p) {
			n = len(p)
		}
		return n, errFlaky
	}
	w.calls = append(w.calls, append([]byte(nil), p...))
	return len(p), nil
}

// parseFrames splits one recorded Write into its tagged frames; the
// write must contain only whole frames — a trailing fragment fails.
func parseFrames(t *testing.T, call []byte) (tags []uint32, payloads [][]byte) {
	t.Helper()
	r := bytes.NewReader(call)
	for r.Len() > 0 {
		tag, payload, err := transport.ReadTaggedFrameLimit(r, 0)
		if err != nil {
			t.Fatalf("recorded write is not whole frames: %v (%d bytes left)", err, r.Len())
		}
		tags = append(tags, tag)
		payloads = append(payloads, payload)
	}
	return tags, payloads
}

// The regression the all-or-nothing rewrite fixes: a write error used
// to leave half a frame buffered, and the next send would flush the
// remainder onto the stream — frame-shifting every byte after it. Now
// a failed write poisons the client: the same error latches on every
// later Send/Flush/Close, and the bytes that did reach the connection
// are exclusively whole frames.
func TestClientWriteErrorPoisons(t *testing.T) {
	fo := ldp.NewSOLH(16, 4, 2)
	key, err := ecies.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	reports := ldp.RandomizeParallel(fo, []int{1, 2, 3, 4, 5, 6}, 9, 0)

	t.Run("session", func(t *testing.T) {
		w := &flakyWriter{failAt: 0, partial: 10}
		cl, err := service.NewSessionClient(fo, key.Public(), nil, w, 2)
		if err != nil {
			t.Fatal(err)
		}
		// First report buffers; the second fills the batch and triggers
		// the first write — hello plus batch — which fails mid-frame.
		if err := cl.SendReport(reports[0]); err != nil {
			t.Fatal(err)
		}
		err = cl.SendReport(reports[1])
		if err == nil || !errors.Is(err, errFlaky) {
			t.Fatalf("write failure not surfaced: %v", err)
		}
		if err := cl.SendReport(reports[2]); !errors.Is(err, errFlaky) {
			t.Fatalf("send after write failure: %v, want the latched error", err)
		}
		if err := cl.Flush(); !errors.Is(err, errFlaky) {
			t.Fatalf("flush after write failure: %v, want the latched error", err)
		}
		if len(w.calls) != 0 {
			t.Fatalf("poisoned session client completed %d writes, want 0", len(w.calls))
		}
	})
}

// The session handshake must never travel as its own fragment: the
// hello frame rides in the same single Write as the first batch, and
// every write holds only whole frames.
func TestSessionClientFrameLayout(t *testing.T) {
	fo := ldp.NewSOLH(16, 4, 2)
	key, err := ecies.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	codec, err := service.NewCodec(fo)
	if err != nil {
		t.Fatal(err)
	}
	w := &flakyWriter{failAt: 1 << 30}
	cl, err := service.NewSessionClient(fo, key.Public(), nil, w, 3)
	if err != nil {
		t.Fatal(err)
	}
	reports := ldp.RandomizeParallel(fo, []int{0, 1, 2, 3, 4, 5, 6}, 21, 0)
	for _, rep := range reports {
		if err := cl.SendReport(rep); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	// 7 reports, batch 3: two full batches plus a flushed ragged one.
	if len(w.calls) != 3 {
		t.Fatalf("connection saw %d writes, want 3", len(w.calls))
	}
	for i, call := range w.calls {
		tags, payloads := parseFrames(t, call)
		wantFrames, batch := 1, 3
		if i == 0 {
			wantFrames = 2 // hello + first batch, one write
		}
		if i == 2 {
			batch = 1
		}
		if len(tags) != wantFrames {
			t.Fatalf("write %d carries %d frames, want %d", i, len(tags), wantFrames)
		}
		if i == 0 {
			if tags[0] != service.SessionHelloTag {
				t.Fatalf("first frame tag %#x, want the session hello tag", tags[0])
			}
			if len(payloads[0]) != ecies.HelloSize {
				t.Fatalf("hello payload is %d bytes, want %d", len(payloads[0]), ecies.HelloSize)
			}
			tags, payloads = tags[1:], payloads[1:]
		}
		if want := batch*codec.Size() + ecies.SessionOverhead; len(payloads[0]) != want {
			t.Fatalf("write %d batch frame is %d bytes, want %d", i, len(payloads[0]), want)
		}
		if tags[0] != service.EpochCurrent {
			t.Fatalf("write %d batch frame tag %#x, want EpochCurrent", i, tags[0])
		}
	}
}

// waitKicked polls until the service has kicked n connections.
func waitKicked(t *testing.T, svc *service.Service, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for svc.Snapshot().Kicked < n {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d kicked connections (have %d)", n, svc.Snapshot().Kicked)
		}
		time.Sleep(time.Millisecond)
	}
}

// sendSession pushes reports through one conforming session connection
// and closes it.
func sendSession(t *testing.T, svc *service.Service, fo ldp.FrequencyOracle, key *ecies.PrivateKey, reports []ldp.Report) {
	t.Helper()
	clientSide, serverSide := net.Pipe()
	if err := svc.Ingest(serverSide); err != nil {
		t.Fatal(err)
	}
	cl, err := service.NewSessionClient(fo, key.Public(), nil, clientSide, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range reports {
		if err := cl.SendReport(rep); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
}

// A frame whose length prefix exceeds the frame cap must drop that
// connection — counted in Snapshot.Kicked, before any payload byte is
// read — while the service and every other connection carry on.
func TestServiceKicksOversizedFrame(t *testing.T) {
	fo := ldp.NewSOLH(16, 4, 2)
	key, err := ecies.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	cfg := service.Config{FO: fo, Key: key, BatchSize: 4}
	cfg.SetMaxFrame(1024)
	svc, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	attacker, serverSide := net.Pipe()
	defer attacker.Close()
	if err := svc.Ingest(serverSide); err != nil {
		t.Fatal(err)
	}
	// The reader rejects on the length prefix alone and closes the
	// connection, so this blocking pipe write ends in an error — which
	// is the expected outcome, not a test failure.
	go transport.WriteTaggedFrame(attacker, 7, make([]byte, 4096))
	waitKicked(t, svc, 1)

	// The rest of the service is unharmed: a conforming client on a new
	// connection still streams.
	reports := ldp.RandomizeParallel(fo, []int{1, 2, 3}, 11, 0)
	sendSession(t, svc, fo, key, reports)
	snap, err := svc.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Reports != 3 || snap.Kicked != 1 {
		t.Fatalf("want 3 reports and 1 kick, got %+v", snap)
	}
}

// A connection whose first frame is not a well-formed session hello —
// truncated, wrong version, not a curve point, or no hello at all but
// an old-style per-report ECIES ciphertext under an epoch tag — is
// kicked and counted. The service keeps serving: a session connection
// open across all the kicks folds every one of its reports, and the
// drained histogram is bit-identical to a sequential aggregation of
// them.
func TestSessionHandshakeViolationsKick(t *testing.T) {
	fo := ldp.NewSOLH(16, 4, 2)
	key, err := ecies.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	codec, err := service.NewCodec(fo)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := service.New(service.Config{FO: fo, Key: key, BatchSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	reports := ldp.RandomizeParallel(fo, []int{1, 2, 3, 5, 8, 13}, 13, 0)
	goodSide, serverSide := net.Pipe()
	defer goodSide.Close()
	if err := svc.Ingest(serverSide); err != nil {
		t.Fatal(err)
	}
	good, err := service.NewSessionClient(fo, key.Public(), nil, goodSide, 1)
	if err != nil {
		t.Fatal(err)
	}

	truncated := make([]byte, 10)
	truncated[0] = ecies.SessionVersion
	wrongVersion := make([]byte, ecies.HelloSize)
	wrongVersion[0] = 99
	badPoint := make([]byte, ecies.HelloSize)
	badPoint[0] = ecies.SessionVersion // version ok, point bytes all zero
	payload, err := codec.AppendMarshal(nil, reports[0])
	if err != nil {
		t.Fatal(err)
	}
	eciesReport, err := ecies.Encrypt(key.Public(), payload)
	if err != nil {
		t.Fatal(err)
	}

	firstFrames := []struct {
		tag   uint32
		frame []byte
	}{
		{service.SessionHelloTag, truncated},
		{service.SessionHelloTag, wrongVersion},
		{service.SessionHelloTag, badPoint},
		{service.EpochCurrent, eciesReport},
	}
	for i, ff := range firstFrames {
		// The conforming connection streams between the violations.
		if err := good.SendReport(reports[i]); err != nil {
			t.Fatal(err)
		}
		clientSide, serverSide := net.Pipe()
		if err := svc.Ingest(serverSide); err != nil {
			t.Fatal(err)
		}
		if err := transport.WriteTaggedFrame(clientSide, ff.tag, ff.frame); err != nil {
			t.Fatalf("first frame %d: %v", i, err)
		}
		waitKicked(t, svc, int64(i+1))
		clientSide.Close()
	}
	if err := svc.Err(); err != nil {
		t.Fatalf("a kicked connection failed the service: %v", err)
	}
	for _, rep := range reports[len(firstFrames):] {
		if err := good.SendReport(rep); err != nil {
			t.Fatal(err)
		}
	}
	if err := good.Close(); err != nil {
		t.Fatal(err)
	}
	snap, err := svc.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Reports != len(reports) || snap.Kicked != int64(len(firstFrames)) {
		t.Fatalf("want %d reports and %d kicks, got %+v", len(reports), len(firstFrames), snap)
	}
	agg := fo.NewAggregator()
	for _, rep := range reports {
		agg.Add(rep)
	}
	sameEstimates(t, "drain estimate across the kicks", snap.Estimates, agg.Estimates())
}

// TestV1HelloIsRefused puts on the wire what a client that padded word
// reports to 8 bytes sends first: a genuine hello with version byte 1,
// and in the same write a sealed tail frame of five 8-byte reports —
// 40 bytes, which would cut evenly into eight 5-byte records. The hello
// must be refused with ecies.ErrSessionVersion, the connection kicked
// and counted, and not one record received.
func TestV1HelloIsRefused(t *testing.T) {
	const parentSessionVersion = 1
	fo := ldp.NewSOLH(64, 16, 2)
	key, err := ecies.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	enc, err := ldp.NewWordEncoder(fo)
	if err != nil {
		t.Fatal(err)
	}
	sess, hello, err := ecies.NewClientSession(key.Public())
	if err != nil {
		t.Fatal(err)
	}
	hello[0] = parentSessionVersion
	if _, err := ecies.NewServerSession(key, hello); !errors.Is(err, ecies.ErrSessionVersion) {
		t.Fatalf("version-%d hello: got %v, want ecies.ErrSessionVersion", parentSessionVersion, err)
	}
	var padded []byte
	for _, rep := range ldp.RandomizeParallel(fo, []int{1, 2, 3, 5, 8}, 13, 0) {
		padded = binary.LittleEndian.AppendUint64(padded, enc.Encode(rep))
	}
	frame, err := sess.Seal(nil, padded)
	if err != nil {
		t.Fatal(err)
	}
	var wire bytes.Buffer
	if err := transport.WriteTaggedFrame(&wire, service.SessionHelloTag, hello); err != nil {
		t.Fatal(err)
	}
	if err := transport.WriteTaggedFrame(&wire, service.EpochCurrent, frame); err != nil {
		t.Fatal(err)
	}

	svc, err := service.New(service.Config{FO: fo, Key: key})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	clientSide, serverSide := net.Pipe()
	defer clientSide.Close()
	if err := svc.Ingest(serverSide); err != nil {
		t.Fatal(err)
	}
	// The write fails part-way once the service kicks the connection.
	go clientSide.Write(wire.Bytes())
	waitKicked(t, svc, 1)
	snap, err := svc.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Kicked != 1 || snap.Received != 0 || snap.Reports != 0 {
		t.Fatalf("version-%d client: kicked %d, received %d, aggregated %d; want 1, 0, 0", parentSessionVersion, snap.Kicked, snap.Received, snap.Reports)
	}
}

// TestSendReportRefusesOutOfRangeWord sends word reports whose Value
// lies outside SOLH's hashed domain [0, d′) between good ones. Each
// must be an error from SendReport — not a panic in the word encoder —
// and must leave the open batch as it was: the drained histogram is
// bit-identical to the good reports alone.
func TestSendReportRefusesOutOfRangeWord(t *testing.T) {
	fo := ldp.NewSOLH(64, 16, 2)
	key, err := ecies.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
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
	good := ldp.RandomizeParallel(fo, []int{3, 7, 11, 60}, 21, 0)
	for _, rep := range good[:2] {
		if err := cl.SendReport(rep); err != nil {
			t.Fatal(err)
		}
	}
	for _, v := range []int{-1, 16, 99} {
		if err := cl.SendReport(ldp.Report{Seed: good[0].Seed, Value: v}); err == nil {
			t.Fatalf("report value %d outside [0, 16) accepted", v)
		}
	}
	for _, rep := range good[2:] {
		if err := cl.SendReport(rep); err != nil {
			t.Fatalf("good report after a refused one: %v", err)
		}
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	snap, err := svc.Drain()
	if err != nil {
		t.Fatal(err)
	}
	agg := fo.NewAggregator()
	for _, rep := range good {
		agg.Add(rep)
	}
	if snap.Reports != len(good) || snap.Kicked != 0 {
		t.Fatalf("want %d reports and no kicks, got %+v", len(good), snap)
	}
	sameEstimates(t, "drain estimate around the refused reports", snap.Estimates, agg.Estimates())
}

// sessionConn hand-rolls the client side of a session — hello frame
// written, ecies.Session ready — so tests can put precisely crafted
// frames on the wire.
func sessionConn(t *testing.T, svc *service.Service, key *ecies.PrivateKey) (net.Conn, *ecies.Session) {
	t.Helper()
	clientSide, serverSide := net.Pipe()
	if err := svc.Ingest(serverSide); err != nil {
		t.Fatal(err)
	}
	sess, hello, err := ecies.NewClientSession(key.Public())
	if err != nil {
		t.Fatal(err)
	}
	if err := transport.WriteTaggedFrame(clientSide, service.SessionHelloTag, hello); err != nil {
		t.Fatal(err)
	}
	return clientSide, sess
}

// Replayed, tampered, and misaligned session frames kick the
// connection; reports accepted before the violation stand, nothing
// after it lands, and the service survives to drain cleanly.
func TestSessionFrameViolationsKick(t *testing.T) {
	fo := ldp.NewSOLH(16, 4, 2)
	key, err := ecies.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	codec, err := service.NewCodec(fo)
	if err != nil {
		t.Fatal(err)
	}
	reports := ldp.RandomizeParallel(fo, []int{3, 5}, 17, 0)
	var batch []byte
	for _, rep := range reports {
		if batch, err = codec.AppendMarshal(batch, rep); err != nil {
			t.Fatal(err)
		}
	}
	newSvc := func() *service.Service {
		svc, err := service.New(service.Config{FO: fo, Key: key, BatchSize: 4})
		if err != nil {
			t.Fatal(err)
		}
		return svc
	}
	drain := func(svc *service.Service, wantReports int) {
		t.Helper()
		snap, err := svc.Drain()
		if err != nil {
			t.Fatalf("violation escalated past the connection: %v", err)
		}
		if snap.Reports != wantReports || snap.Kicked != 1 {
			t.Fatalf("want %d reports and 1 kick, got %+v", wantReports, snap)
		}
	}

	t.Run("replay", func(t *testing.T) {
		svc := newSvc()
		defer svc.Close()
		conn, sess := sessionConn(t, svc, key)
		defer conn.Close()
		frame, err := sess.Seal(nil, batch)
		if err != nil {
			t.Fatal(err)
		}
		if err := transport.WriteTaggedFrame(conn, service.EpochCurrent, frame); err != nil {
			t.Fatal(err)
		}
		waitReceived(t, svc, 2)
		// The identical bytes again: same counter, so the server must
		// refuse and kick, never double-count.
		if err := transport.WriteTaggedFrame(conn, service.EpochCurrent, frame); err != nil {
			t.Fatal(err)
		}
		waitKicked(t, svc, 1)
		drain(svc, 2)
	})

	t.Run("tamper", func(t *testing.T) {
		svc := newSvc()
		defer svc.Close()
		conn, sess := sessionConn(t, svc, key)
		defer conn.Close()
		frame, err := sess.Seal(nil, batch)
		if err != nil {
			t.Fatal(err)
		}
		frame[len(frame)-1] ^= 0xff
		if err := transport.WriteTaggedFrame(conn, service.EpochCurrent, frame); err != nil {
			t.Fatal(err)
		}
		waitKicked(t, svc, 1)
		drain(svc, 0)
	})

	t.Run("ragged-batch", func(t *testing.T) {
		svc := newSvc()
		defer svc.Close()
		conn, sess := sessionConn(t, svc, key)
		defer conn.Close()
		// Authentic frame, but the plaintext is not a whole number of
		// reports — a protocol violation past the AEAD layer.
		frame, err := sess.Seal(nil, append(append([]byte(nil), batch...), 0x7f))
		if err != nil {
			t.Fatal(err)
		}
		if err := transport.WriteTaggedFrame(conn, service.EpochCurrent, frame); err != nil {
			t.Fatal(err)
		}
		waitKicked(t, svc, 1)
		drain(svc, 0)
	})

	t.Run("hello-tag-mid-stream", func(t *testing.T) {
		// A SessionHelloTag on a later frame is NOT a new handshake:
		// the session is keyed by the first frame, and the tag is just
		// this batch's (nonsensical) epoch assertion — the frame itself
		// still authenticates, so the reports land as Late, not as a
		// session reset.
		svc := newSvc()
		defer svc.Close()
		conn, sess := sessionConn(t, svc, key)
		defer conn.Close()
		frame, err := sess.Seal(nil, batch)
		if err != nil {
			t.Fatal(err)
		}
		if err := transport.WriteTaggedFrame(conn, service.SessionHelloTag, frame); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(10 * time.Second)
		for svc.Snapshot().Late < 2 {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for 2 late drops (have %d)", svc.Snapshot().Late)
			}
			time.Sleep(time.Millisecond)
		}
		conn.Close()
		snap, err := svc.Drain()
		if err != nil {
			t.Fatal(err)
		}
		if snap.Kicked != 0 {
			t.Fatalf("mid-stream hello tag kicked the connection: %+v", snap)
		}
		if snap.Reports != 0 || snap.Late != 2 {
			t.Fatalf("want 0 reports and 2 late (epoch %#x is long sealed), got %+v", service.SessionHelloTag, snap)
		}
	})
}

// Session clients over a real TCP accept loop: batched clients finish
// so fast their connections can still sit in the listener backlog when
// the last client returns, so the caller-side contract (documented on
// Serve) is to wait until Snapshot accounts for every frame before
// draining. With that discipline no report is lost.
func TestSessionOverTCPServe(t *testing.T) {
	const n, clients = 3000, 4
	fo := ldp.NewSOLH(64, 4, 2)
	key, err := ecies.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	svc, err := service.New(service.Config{FO: fo, Key: key, BatchSize: 512})
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

	reports := ldp.RandomizeParallel(fo, make([]int, n), 1, 0)
	errc := make(chan error, clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				errc <- err
				return
			}
			cl, err := service.NewSessionClient(fo, key.Public(), nil, conn, 0)
			if err != nil {
				errc <- err
				return
			}
			for i := c; i < len(reports); i += clients {
				if err := cl.SendReport(reports[i]); err != nil {
					errc <- err
					return
				}
			}
			errc <- cl.Close()
		}(c)
	}
	for c := 0; c < clients; c++ {
		if err := <-errc; err != nil {
			t.Fatalf("client: %v", err)
		}
	}
	// All clients returned, but their frames may still be in kernel
	// buffers behind an unaccepted connection: account before draining.
	waitReceived(t, svc, n)
	snap, err := svc.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-serveDone; err != nil {
		t.Fatal(err)
	}
	if snap.Reports != n {
		t.Fatalf("aggregated %d reports, want %d", snap.Reports, n)
	}
}

// Session reports reach the WAL re-sealed under the at-rest storage
// key (the connection key dies with the connection), and recovery
// opens them back into the epoch bit-identically.
func TestRecoverSealedSessionReports(t *testing.T) {
	const d, n = 32, 24
	fo := ldp.NewSOLH(d, 8, 2)
	key, err := ecies.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	values := make([]int, n)
	for i := range values {
		values[i] = (i * 3) % d
	}
	reports := ldp.RandomizeParallel(fo, values, 31, 0)
	cfg := service.Config{
		FO: fo, Key: key, BatchSize: 8,
		DataDir: t.TempDir(), Sync: store.SyncBatch,
	}
	svc, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	sendSession(t, svc, fo, key, reports)

	// Three full shuffle batches forwarded means three WAL commits: all
	// 24 reports are durable regardless of the crash below.
	waitBatches(t, svc, 3)
	svc.Crash()

	rec, err := service.Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := rec.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Reports != n || snap.Received != n {
		t.Fatalf("recovered %d reports (%d received), want %d", snap.Reports, snap.Received, n)
	}
	agg := fo.NewAggregator()
	for _, rep := range reports {
		agg.Add(rep)
	}
	want := agg.Estimates()
	for v := range want {
		if snap.Estimates[v] != want[v] {
			t.Fatalf("recovered estimate[%d] = %v, direct aggregation = %v (not bit-identical)", v, snap.Estimates[v], want[v])
		}
	}
}

var _ io.Writer = (*flakyWriter)(nil)
