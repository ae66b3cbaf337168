package service_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"shuffledp/internal/budget"
	"shuffledp/internal/composition"
	"shuffledp/internal/ecies"
	"shuffledp/internal/ldp"
	"shuffledp/internal/service"
	"shuffledp/internal/store"
)

// recoveryWorld is the fixed workload the crash-recovery tests drive:
// pre-randomized reports, manual rotation boundaries, and a fresh
// ledger per "process" (a recovered service must get a new Ledger
// instance, exactly like a restarted analyzer would).
type recoveryWorld struct {
	fo        ldp.FrequencyOracle
	key       *ecies.PrivateKey
	reports   []ldp.Report
	bounds    []int // rotation boundaries (report counts), ascending
	totalEps  float64
	perEps    float64
	batchSize int
	frame     int // reports per client session frame
}

// newRecoveryWorld is the world most recovery tests share: 1800 reports
// sent one per session frame — the record-per-report WAL every build
// before frame records wrote.
func newRecoveryWorld(t *testing.T) *recoveryWorld {
	return newRecoveryWorldOf(t, 1800, 1, 128)
}

// newRecoveryWorldOf cuts n reports into three equal epochs, sent frame
// reports per session frame through shuffle batches of batchSize.
func newRecoveryWorldOf(t *testing.T, n, frame, batchSize int) *recoveryWorld {
	t.Helper()
	const (
		d      = 32
		seed   = 99
		perEps = 1.5
		epochs = 3
	)
	perEpoch := n / epochs
	fo := ldp.NewSOLH(d, 8, 2)
	values := make([]int, n)
	for i := range values {
		values[i] = (i * 7) % d
	}
	key, err := ecies.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	return &recoveryWorld{
		fo:        fo,
		key:       key,
		reports:   ldp.RandomizeParallel(fo, values, seed, 0),
		bounds:    []int{perEpoch, 2 * perEpoch},
		totalEps:  perEps * epochs,
		perEps:    perEps,
		batchSize: batchSize,
		frame:     frame,
	}
}

func (w *recoveryWorld) ledger(t *testing.T) *budget.Ledger {
	t.Helper()
	l, err := budget.NewLedger(
		composition.Guarantee{Eps: w.totalEps, Delta: 3e-9},
		composition.Guarantee{Eps: w.perEps, Delta: 1e-9},
	)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// epochsPaid is how many epochs a world ledger has paid for: the k at
// which a twin from w.ledger, paid for k epochs, has spent exactly what
// l has. Spent grows with every epoch paid, so k is unique; -1 means no
// count the total admits matches. (Spent over the per-epoch eps is no
// count: exact composition spends less than k of them by however much
// delta room the total leaves.)
func (w *recoveryWorld) epochsPaid(t *testing.T, l *budget.Ledger) int {
	t.Helper()
	twin, spent := w.ledger(t), l.Spent()
	for k := 0; ; k++ {
		if twin.Spent() == spent {
			return k
		}
		if twin.PayThrough(k) != nil {
			return -1
		}
	}
}

func (w *recoveryWorld) config(ledger *budget.Ledger, dir string, sync store.SyncPolicy) service.Config {
	return service.Config{
		FO: w.fo, Key: w.key, BatchSize: w.batchSize,
		Ledger: ledger, DataDir: dir, Sync: sync,
	}
}

// send pushes reports[from:to] through one connection and waits until
// the service has accepted all `to` frames.
func (w *recoveryWorld) send(t *testing.T, svc *service.Service, from, to int) {
	t.Helper()
	clientSide, serverSide := net.Pipe()
	if err := svc.Ingest(serverSide); err != nil {
		t.Fatal(err)
	}
	cl, err := service.NewSessionClient(w.fo, w.key.Public(), nil, clientSide, w.frame)
	if err != nil {
		t.Fatal(err)
	}
	for i := from; i < to; i++ {
		if err := cl.SendReport(w.reports[i]); err != nil {
			t.Fatalf("sending report %d: %v", i, err)
		}
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	waitReceived(t, svc, int64(to))
}

// run drives the full workload on svc from its current position:
// rotations happen at the fixed boundaries, already-sealed epochs
// (svc.Epoch) are skipped, and the stream resumes at the durable
// Received count. Returns the drain snapshot.
func (w *recoveryWorld) run(t *testing.T, svc *service.Service) service.Snapshot {
	t.Helper()
	sent := int(svc.Snapshot().Received)
	for _, b := range w.bounds[svc.Epoch():] {
		if sent < b {
			w.send(t, svc, sent, b)
			sent = b
		}
		if _, err := svc.Rotate(); err != nil {
			t.Fatalf("rotating at %d reports: %v", b, err)
		}
	}
	if sent < len(w.reports) {
		w.send(t, svc, sent, len(w.reports))
	}
	snap, err := svc.Drain()
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// sameEstimates requires exact (bit-identical) equality.
func sameEstimates(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d estimates, want %d", label, len(got), len(want))
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("%s: estimate[%d] = %v, want %v (not bit-identical)", label, v, got[v], want[v])
		}
	}
}

// recoveryReference is what an uninterrupted in-memory run of the
// world's workload ends with — the state every crashed-and-recovered
// run must reproduce bit for bit.
type recoveryReference struct {
	snap   service.Snapshot
	win    service.WindowSnapshot
	hist   []service.EpochSnapshot
	ledger *budget.Ledger
	w      *recoveryWorld
}

func (w *recoveryWorld) reference(t *testing.T) *recoveryReference {
	t.Helper()
	ref := &recoveryReference{ledger: w.ledger(t), w: w}
	svc, err := service.New(w.config(ref.ledger, "", 0))
	if err != nil {
		t.Fatal(err)
	}
	ref.snap = w.run(t, svc)
	if ref.win, err = svc.EstimateWindow(0); err != nil {
		t.Fatal(err)
	}
	ref.hist = svc.History()
	return ref
}

// same requires a drained service — its drain snapshot, window, history
// and ledger — to equal the reference exactly.
func (ref *recoveryReference) same(t *testing.T, svc *service.Service, snap service.Snapshot, ledger *budget.Ledger) {
	t.Helper()
	sameEstimates(t, "all-time drain estimate", snap.Estimates, ref.snap.Estimates)
	if snap.Reports != ref.snap.Reports || snap.Received != ref.snap.Received {
		t.Fatalf("drain reports/received = %d/%d, want %d/%d",
			snap.Reports, snap.Received, ref.snap.Reports, ref.snap.Received)
	}
	win, err := svc.EstimateWindow(0)
	if err != nil {
		t.Fatal(err)
	}
	if win.Epochs != ref.win.Epochs || win.Reports != ref.win.Reports {
		t.Fatalf("window covers %d epochs / %d reports, want %d / %d",
			win.Epochs, win.Reports, ref.win.Epochs, ref.win.Reports)
	}
	sameEstimates(t, "window estimate", win.Estimates, ref.win.Estimates)
	hist := svc.History()
	if len(hist) != len(ref.hist) {
		t.Fatalf("%d sealed epochs, want %d", len(hist), len(ref.hist))
	}
	for i := range ref.hist {
		if hist[i].Epoch != ref.hist[i].Epoch || hist[i].Reports != ref.hist[i].Reports {
			t.Fatalf("epoch %d sealed with %d reports, want epoch %d with %d",
				hist[i].Epoch, hist[i].Reports, ref.hist[i].Epoch, ref.hist[i].Reports)
		}
		sameEstimates(t, "sealed epoch estimate", hist[i].Estimates, ref.hist[i].Estimates)
	}
	if got, want := ref.w.epochsPaid(t, ledger), ref.w.epochsPaid(t, ref.ledger); got != want {
		t.Fatalf("recovered ledger charged %d epochs, reference charged %d", got, want)
	}
	if got, want := ledger.Spent(), ref.ledger.Spent(); got != want {
		t.Fatalf("recovered spent budget %+v, reference %+v (not bit-identical)", got, want)
	}
}

// The crash-recovery conformance test: the same stream of reports cut
// into three epochs, hard-stopped at one or more points mid-stream,
// recovered, and finished — the final window estimate, per-epoch
// history, all-time drain estimate, and remaining privacy budget must
// be bit-identical to an uninterrupted run. Runs under -race in CI.
func TestCrashRecoveryConformance(t *testing.T) {
	w := newRecoveryWorld(t)
	ref := w.reference(t)

	cases := []struct {
		name  string
		sync  store.SyncPolicy
		kills []int
	}{
		{"early-epoch0-always", store.SyncAlways, []int{150}},
		{"mid-epoch1-batch", store.SyncBatch, []int{700}},
		{"double-crash-none", store.SyncNone, []int{400, 1300}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			svc, err := service.New(w.config(w.ledger(t), dir, tc.sync))
			if err != nil {
				t.Fatal(err)
			}
			var ledger *budget.Ledger
			for _, kill := range tc.kills {
				// Drive the workload up to the kill point, then pull
				// the plug.
				sent := int(svc.Snapshot().Received)
				for _, b := range w.bounds[svc.Epoch():] {
					if b >= kill {
						break
					}
					if sent < b {
						w.send(t, svc, sent, b)
						sent = b
					}
					if _, err := svc.Rotate(); err != nil {
						t.Fatal(err)
					}
				}
				if sent < kill {
					w.send(t, svc, sent, kill)
				}
				svc.Crash()

				// A restarted analyzer is a new process: fresh ledger
				// instance, state only from the data directory.
				ledger = w.ledger(t)
				svc, err = service.Recover(w.config(ledger, dir, tc.sync))
				if err != nil {
					t.Fatalf("recovering after crash at %d: %v", kill, err)
				}
				if got := int(svc.Snapshot().Received); got > kill {
					t.Fatalf("recovered Received = %d, beyond the %d reports ever sent", got, kill)
				}
			}
			snap := w.run(t, svc)

			ref.same(t, svc, snap, ledger)
		})
	}
}

// stageInterruptedRotation hand-writes dir exactly as a service that
// crashed right after the service wrote the rotation marker would
// leave it: reports[:n] logged for epoch 0 (each one-report frame
// handed to appendRec), the marker opening epoch next (-1: the ledger
// refused epoch 1), no checkpoint.
func (w *recoveryWorld) stageInterruptedRotation(t *testing.T, dir string, n int, next int64, appendRec func(st *store.Store, payload []byte) error) {
	t.Helper()
	codec, err := service.NewCodec(w.fo)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Create(dir, store.Meta{Oracle: w.fo.Name(), Domain: w.fo.Domain()}, store.SyncBatch)
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range w.reports[:n] {
		payload, err := codec.PackFrame([]ldp.Report{rep})
		if err != nil {
			t.Fatal(err)
		}
		if err := appendRec(st, payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Rotate(0, next); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// A crash between the rotation marker and its checkpoint: the WAL
// tail ends with a rotate record whose seal never became a
// checkpoint. Recovery must replay the seal — charging the ledger
// exactly once and freezing the epoch into history — and re-write the
// lost checkpoint.
func TestRecoverReplaysInterruptedRotation(t *testing.T) {
	w := newRecoveryWorld(t)
	dir := t.TempDir()
	sealer, err := ecies.NewStorageSealer(w.key)
	if err != nil {
		t.Fatal(err)
	}
	const n = 300
	w.stageInterruptedRotation(t, dir, n, 1, func(st *store.Store, payload []byte) error {
		return st.AppendSealedReport(0, sealer.Seal(nil, payload))
	})
	agg := w.fo.NewAggregator()
	for _, rep := range w.reports[:n] {
		agg.Add(rep)
	}

	ledger := w.ledger(t)
	svc, err := service.Recover(w.config(ledger, dir, store.SyncBatch))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if got := svc.Epoch(); got != 1 {
		t.Fatalf("recovered open epoch %d, want 1", got)
	}
	// Epoch 0 charged at New plus the replayed rotation's charge.
	if got := w.epochsPaid(t, ledger); got != 2 {
		t.Fatalf("recovered ledger charged %d epochs, want 2", got)
	}
	hist := svc.History()
	if len(hist) != 1 || hist[0].Epoch != 0 || hist[0].Reports != n {
		t.Fatalf("recovered history %+v, want epoch 0 sealed with %d reports", hist, n)
	}
	sameEstimates(t, "replayed epoch estimate", hist[0].Estimates, agg.Estimates())

	// The interrupted seal is re-durabilized: a checkpoint now exists.
	cks, err := filepath.Glob(filepath.Join(dir, "*.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if len(cks) == 0 {
		t.Fatal("recovery did not re-write the lost checkpoint")
	}
}

// stageSealedRotation is stageInterruptedRotation with sealed report
// records, as the service writes them.
func (w *recoveryWorld) stageSealedRotation(t *testing.T, dir string, n int, next int64) {
	t.Helper()
	sealer, err := ecies.NewStorageSealer(w.key)
	if err != nil {
		t.Fatal(err)
	}
	w.stageInterruptedRotation(t, dir, n, next, func(st *store.Store, payload []byte) error {
		return st.AppendSealedReport(0, sealer.Seal(nil, payload))
	})
}

// oneEpoch is a ledger that affords exactly one epoch of the world's
// per-epoch budget.
func (w *recoveryWorld) oneEpoch(t *testing.T) *budget.Ledger {
	t.Helper()
	l, err := budget.NewLedger(
		composition.Guarantee{Eps: w.perEps, Delta: 1e-9},
		composition.Guarantee{Eps: w.perEps, Delta: 1e-9},
	)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// A WAL whose rotation marker opened epoch 1 shows two epochs paid for.
// Recovered under a ledger that affords one, it is refused: the ledger
// runs under other parameters than the directory was written under. The
// refused attempt has already re-written the rotation's checkpoint, so
// a second attempt must be refused just the same.
func TestRecoverRefusesLedgerTighterThanWAL(t *testing.T) {
	w := newRecoveryWorld(t)
	dir := t.TempDir()
	w.stageSealedRotation(t, dir, 100, 1)
	for attempt := 1; attempt <= 2; attempt++ {
		svc, err := service.Recover(w.config(w.oneEpoch(t), dir, store.SyncBatch))
		if err == nil {
			svc.Close()
			t.Fatalf("attempt %d: Recover paid for fewer epochs than the WAL opened", attempt)
		}
		if !strings.Contains(err.Error(), "WAL opened epoch 1 but the restored ledger refuses it") {
			t.Fatalf("attempt %d: Recover error %q does not name the refused epoch", attempt, err)
		}
	}
}

// A WAL whose rotation marker records the ledger refusing epoch 1,
// recovered under a ledger that would still admit it, is refused too —
// on the second attempt as well, when the exhaustion is read from the
// checkpoint the first one re-wrote.
func TestRecoverRefusesLedgerLooserThanWAL(t *testing.T) {
	w := newRecoveryWorld(t)
	dir := t.TempDir()
	w.stageSealedRotation(t, dir, 100, -1)
	for attempt := 1; attempt <= 2; attempt++ {
		svc, err := service.Recover(w.config(w.ledger(t), dir, store.SyncBatch))
		if err == nil {
			svc.Close()
			t.Fatalf("attempt %d: Recover admitted epochs the WAL records the ledger refusing", attempt)
		}
		if !strings.Contains(err.Error(), "WAL records budget exhaustion at epoch 0 but the restored ledger still admits epochs") {
			t.Fatalf("attempt %d: Recover error %q does not name the recorded exhaustion", attempt, err)
		}
	}
}

// A whole WAL record — its checksum holds — of a type this build does
// not decode was written by something else: the words record older
// cluster.Analyzer builds logged (byte 1, now reserved) or a type no
// build wrote. Even as the final segment's last record it is no torn
// tail, so Recover must refuse the directory by the record's type and
// leave the segment on disk exactly as it was — never truncate it
// away with the sealed frame before it recovered.
func TestRecoverRefusesUnknownWALRecord(t *testing.T) {
	for _, tc := range []struct {
		name    string
		payload []byte
	}{
		{"retired words record", binary.LittleEndian.AppendUint64([]byte{1, 0, 0, 0, 0}, 5)},
		{"unknown type", []byte{99, 0, 0, 0, 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newRecoveryWorld(t)
			dir := t.TempDir()
			codec, err := service.NewCodec(w.fo)
			if err != nil {
				t.Fatal(err)
			}
			sealer, err := ecies.NewStorageSealer(w.key)
			if err != nil {
				t.Fatal(err)
			}
			frame, err := codec.PackFrame(w.reports[:10])
			if err != nil {
				t.Fatal(err)
			}
			st, err := store.Create(dir, store.Meta{Oracle: w.fo.Name(), Domain: w.fo.Domain()}, store.SyncBatch)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.AppendSealedReport(0, sealer.Seal(nil, frame)); err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			// Framed as the store frames every record: big-endian
			// length, the encoding, big-endian CRC32C.
			path := newestSegment(t, dir)
			rec := binary.BigEndian.AppendUint32(nil, uint32(len(tc.payload)))
			rec = binary.BigEndian.AppendUint32(append(rec, tc.payload...), crc32.Checksum(tc.payload, crc32.MakeTable(crc32.Castagnoli)))
			f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(rec); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			seg, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			want := fmt.Sprintf("unknown WAL record type %d", tc.payload[0])
			for attempt := 1; attempt <= 2; attempt++ {
				svc, err := service.Recover(w.config(w.ledger(t), dir, store.SyncBatch))
				if err == nil {
					snap := svc.Snapshot()
					svc.Close()
					t.Fatalf("attempt %d: Recover accepted a WAL holding a record of type %d (%d reports received)", attempt, tc.payload[0], snap.Received)
				}
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("attempt %d: Recover error %q does not name the record (%q)", attempt, err, want)
				}
				if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, seg) {
					t.Fatalf("attempt %d: the refused segment changed on disk (%v)", attempt, err)
				}
			}
		})
	}
}

// Drain's all-time estimate is the merge of the sealed history, so it
// equals EstimateWindow(0) bit for bit — on an uninterrupted service,
// and on one crashed mid-epoch and recovered, whose history came back
// from the checkpoint.
func TestDrainIsTheMergedHistory(t *testing.T) {
	w := newRecoveryWorld(t)
	check := func(t *testing.T, svc *service.Service, snap service.Snapshot) {
		t.Helper()
		win, err := svc.EstimateWindow(0)
		if err != nil {
			t.Fatal(err)
		}
		if snap.Reports != win.Reports || snap.Reports != len(w.reports) {
			t.Fatalf("drain covers %d reports, the merged history %d, the stream %d", snap.Reports, win.Reports, len(w.reports))
		}
		sameEstimates(t, "drain against EstimateWindow(0)", snap.Estimates, win.Estimates)
	}
	t.Run("uninterrupted", func(t *testing.T) {
		svc, err := service.New(w.config(w.ledger(t), t.TempDir(), store.SyncBatch))
		if err != nil {
			t.Fatal(err)
		}
		check(t, svc, w.run(t, svc))
	})
	t.Run("crashed and recovered", func(t *testing.T) {
		dir := t.TempDir()
		svc, err := service.New(w.config(w.ledger(t), dir, store.SyncAlways))
		if err != nil {
			t.Fatal(err)
		}
		w.send(t, svc, 0, w.bounds[0])
		if _, err := svc.Rotate(); err != nil {
			t.Fatal(err)
		}
		w.send(t, svc, w.bounds[0], w.bounds[0]+100)
		svc.Crash()
		if svc, err = service.Recover(w.config(w.ledger(t), dir, store.SyncAlways)); err != nil {
			t.Fatal(err)
		}
		check(t, svc, w.run(t, svc))
	})
}

// Budget exhaustion must survive a restart: a recovered service whose
// ledger ran dry keeps refusing ingestion while staying queryable.
func TestRecoverExhaustedLedgerStillRefuses(t *testing.T) {
	w := newRecoveryWorld(t)
	dir := t.TempDir()

	// A ledger that affords exactly 2 epochs.
	twoEpochs := func() *budget.Ledger {
		l, err := budget.NewLedger(
			composition.Guarantee{Eps: 2 * w.perEps, Delta: 2e-9},
			composition.Guarantee{Eps: w.perEps, Delta: 1e-9},
		)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	svc, err := service.New(w.config(twoEpochs(), dir, store.SyncBatch))
	if err != nil {
		t.Fatal(err)
	}
	w.send(t, svc, 0, 200)
	if _, err := svc.Rotate(); err != nil {
		t.Fatal(err)
	}
	// A connection opened before exhaustion keeps sending afterwards:
	// its reports must be rejected, counted, and the count must be
	// durable.
	clientPre, serverPre := net.Pipe()
	if err := svc.Ingest(serverPre); err != nil {
		t.Fatal(err)
	}
	clPre, err := service.NewSessionClient(w.fo, w.key.Public(), nil, clientPre, 1)
	if err != nil {
		t.Fatal(err)
	}
	w.send(t, svc, 200, 400)
	if _, err := svc.Rotate(); err == nil || !errors.Is(err, budget.ErrExhausted) {
		t.Fatalf("third epoch rotated with err = %v, want ErrExhausted", err)
	}
	if !svc.Exhausted() {
		t.Fatal("service not exhausted after the refused rotation")
	}
	const lateSends = 7
	for i := 0; i < lateSends; i++ {
		if err := clPre.SendReport(w.reports[400+i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := clPre.Close(); err != nil {
		t.Fatal(err)
	}
	waitRejected(t, svc, lateSends)
	preHist := svc.History()
	svc.Crash()

	rec, err := service.Recover(w.config(twoEpochs(), dir, store.SyncBatch))
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if !rec.Exhausted() {
		t.Fatal("recovered service lost the exhausted state")
	}
	clientSide, serverSide := net.Pipe()
	defer clientSide.Close()
	if err := rec.Ingest(serverSide); err == nil {
		t.Fatal("recovered exhausted service accepted a connection")
	}
	hist := rec.History()
	if len(hist) != len(preHist) {
		t.Fatalf("recovered %d sealed epochs, want %d", len(hist), len(preHist))
	}
	for i := range preHist {
		sameEstimates(t, "recovered sealed epoch", hist[i].Estimates, preHist[i].Estimates)
	}
	if win, err := rec.EstimateWindow(0); err != nil {
		t.Fatalf("recovered exhausted service not queryable: %v", err)
	} else if win.Epochs != 2 {
		t.Fatalf("recovered window covers %d epochs, want 2", win.Epochs)
	}
	snap := rec.Snapshot()
	if snap.Epoch != 1 {
		t.Fatalf("recovered snapshot reports epoch %d, want the sealed final epoch 1", snap.Epoch)
	}
	// The rejected count is durable: the drops were write-ahead logged
	// even though the exhausted service stopped checkpointing.
	if snap.Rejected != lateSends {
		t.Fatalf("recovered Rejected = %d, want the %d post-exhaustion drops", snap.Rejected, lateSends)
	}
}

// waitRejected blocks until the service has counted n rejected
// reports.
func waitRejected(t *testing.T, svc *service.Service, n int64) {
	t.Helper()
	waitSnapshot(t, svc, "rejected reports", n, func(s service.Snapshot) int64 { return s.Rejected })
}

// A WAL whose final record was torn mid-write (the crash hit inside a
// disk write) recovers cleanly to the last whole record.
func TestRecoverTornWALRecord(t *testing.T) {
	w := newRecoveryWorld(t)
	dir := t.TempDir()
	svc, err := service.New(w.config(nil, dir, store.SyncBatch))
	if err != nil {
		t.Fatal(err)
	}
	w.send(t, svc, 0, 100)
	svc.Crash()

	// Tear the tail: append a record fragment — a length prefix
	// claiming more bytes than follow.
	segs, err := filepath.Glob(filepath.Join(dir, "*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments found: %v", err)
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0, 0, 0, 200, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	rec, err := service.Recover(w.config(nil, dir, store.SyncBatch))
	if err != nil {
		t.Fatalf("recovery failed on a torn tail: %v", err)
	}
	got := int(rec.Snapshot().Received)
	if got > 100 {
		t.Fatalf("recovered %d reports, more than the %d ever sent", got, 100)
	}
	// The recovered service keeps working: resume the stream at the
	// durable prefix and finish — the drained estimate must be
	// bit-identical to an offline aggregation of all 100 reports.
	w.send(t, rec, got, 100)
	snap, err := rec.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Reports != 100 {
		t.Fatalf("drained %d reports after resume, want 100", snap.Reports)
	}
	offline := w.fo.NewAggregator()
	for _, rep := range w.reports[:100] {
		offline.Add(rep)
	}
	sameEstimates(t, "resumed stream estimate", snap.Estimates, offline.Estimates())
}

// A checkpoint from a future format version is a clean, descriptive
// refusal — never a partial load, never a panic.
func TestRecoverFutureCheckpointVersion(t *testing.T) {
	w := newRecoveryWorld(t)
	dir := t.TempDir()
	svc, err := service.New(w.config(w.ledger(t), dir, store.SyncBatch))
	if err != nil {
		t.Fatal(err)
	}
	w.send(t, svc, 0, 100)
	if _, err := svc.Rotate(); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Drain(); err != nil {
		t.Fatal(err)
	}

	cks, err := filepath.Glob(filepath.Join(dir, "*.snap"))
	if err != nil || len(cks) == 0 {
		t.Fatalf("no checkpoint found: %v", err)
	}
	data, err := os.ReadFile(cks[len(cks)-1])
	if err != nil {
		t.Fatal(err)
	}
	data[4] += 7 // the version byte follows the 4-byte magic
	if err := os.WriteFile(cks[len(cks)-1], data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := service.Recover(w.config(w.ledger(t), dir, store.SyncBatch)); !errors.Is(err, store.ErrFutureVersion) {
		t.Fatalf("future checkpoint recovered with err = %v, want store.ErrFutureVersion", err)
	}
}

// A checkpoint written by a build whose local hashing ran over the
// retired xxHash64 family holds support counts this build cannot
// interpret (oracle name, d, d' and p all still match). Recover must
// fail on the aggregator blob's kind byte instead of serving estimates
// that mix the two families. The fixture is ldp's checked-in blob from
// the last such build; recoveryWorld's oracle has its parameters.
func TestRecoverRefusesRetiredHashFamilyCheckpoint(t *testing.T) {
	w := newRecoveryWorld(t)
	blob, err := os.ReadFile(filepath.Join("..", "ldp", "testdata", "solh_xxhash_kind2.bin"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st, err := store.Create(dir, store.Meta{Oracle: w.fo.Name(), Domain: w.fo.Domain()}, store.SyncBatch)
	if err != nil {
		t.Fatal(err)
	}
	err = st.WriteCheckpoint(&store.Checkpoint{
		OpenEpoch: 1, OpenCharged: true,
		Received: 200, Batches: 2,
		AllTime: blob,
		History: []store.EpochCheckpoint{{
			Epoch: 0, Reports: 200, Batches: 2,
			Guarantee: composition.Guarantee{Eps: w.perEps, Delta: 1e-9},
			Root:      blob,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	svc, err := service.Recover(w.config(w.ledger(t), dir, store.SyncBatch))
	if err == nil {
		svc.Close()
		t.Fatal("Recover loaded a checkpoint holding retired-family support counts")
	}
	if !strings.Contains(err.Error(), "retired xxHash64 family") {
		t.Fatalf("Recover error %q does not name the retired hash family", err)
	}
}

// New must refuse a data directory that already holds state — losing
// a run to a typo'd restart would be unrecoverable.
func TestNewRefusesExistingState(t *testing.T) {
	w := newRecoveryWorld(t)
	dir := t.TempDir()
	svc, err := service.New(w.config(nil, dir, store.SyncBatch))
	if err != nil {
		t.Fatal(err)
	}
	svc.Close()
	if _, err := service.New(w.config(nil, dir, store.SyncBatch)); !errors.Is(err, store.ErrExists) {
		t.Fatalf("New over existing state: err = %v, want store.ErrExists", err)
	}
}

// New over a directory that already holds state is refused before the
// ledger pays for anything: the caller goes on to Recover, which pays
// for what the directory shows, with the same ledger.
func TestNewOverUsedDirectoryPaysNothing(t *testing.T) {
	w := newRecoveryWorld(t)
	dir := t.TempDir()
	svc, err := service.New(w.config(w.ledger(t), dir, store.SyncBatch))
	if err != nil {
		t.Fatal(err)
	}
	svc.Close()
	ledger := w.ledger(t)
	if _, err := service.New(w.config(ledger, dir, store.SyncBatch)); !errors.Is(err, store.ErrExists) {
		t.Fatalf("New over existing state: err = %v, want store.ErrExists", err)
	}
	if spent := ledger.Spent(); spent != (composition.Guarantee{}) {
		t.Fatalf("the refused New spent %+v of the ledger", spent)
	}
}

// The Snapshot/Rotate race: a Snapshot that loads the epoch pointer
// just as a Rotate seals it must never observe (or corrupt) a
// half-sealed epoch. Sealed estimates are frozen, so any snapshot of
// a sealed epoch must exactly equal its history entry. Run with -race.
func TestSnapshotDuringRotate(t *testing.T) {
	w := newRecoveryWorld(t)
	svc, err := service.New(service.Config{
		FO: w.fo, Key: w.key, BatchSize: 32,
	})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := svc.Snapshot()
				if snap.Reports < 0 {
					t.Error("negative report count")
					return
				}
				_, _ = svc.EstimateWindow(0)
				_ = svc.History()
			}
		}()
	}

	sent := 0
	for e := 0; e < 6; e++ {
		w.send(t, svc, sent, sent+120)
		sent += 120
		snap, err := svc.Rotate()
		if err != nil {
			t.Fatal(err)
		}
		hist := svc.History()
		last := hist[len(hist)-1]
		if last.Epoch != snap.Epoch || last.Reports != snap.Reports {
			t.Fatalf("seal returned epoch %d/%d reports but history holds %d/%d",
				snap.Epoch, snap.Reports, last.Epoch, last.Reports)
		}
		sameEstimates(t, "sealed epoch vs history", snap.Estimates, last.Estimates)
	}
	close(stop)
	wg.Wait()
	if _, err := svc.Drain(); err != nil {
		t.Fatal(err)
	}
	if win, err := svc.EstimateWindow(0); err != nil {
		t.Fatal(err)
	} else if win.Reports != sent {
		t.Fatalf("window covers %d reports, want %d", win.Reports, sent)
	}
}

// Recovering a gracefully drained directory opens the next epoch —
// which the drain never charged — and must spend exactly one more
// guarantee for it: the epoch count across drain/recover cycles must
// equal the epochs that actually collected data, never one less (the
// uncharged-open-epoch accounting hole this test pins shut).
func TestRecoverAfterDrainChargesOpenEpoch(t *testing.T) {
	w := newRecoveryWorld(t)
	dir := t.TempDir()
	svc, err := service.New(w.config(w.ledger(t), dir, store.SyncBatch))
	if err != nil {
		t.Fatal(err)
	}
	w.send(t, svc, 0, 200)
	if _, err := svc.Drain(); err != nil {
		t.Fatal(err)
	}

	// Restart: epoch 1 opens and must cost the second of the ledger's
	// three epochs.
	ledger := w.ledger(t)
	svc, err = service.Recover(w.config(ledger, dir, store.SyncBatch))
	if err != nil {
		t.Fatal(err)
	}
	if got := svc.Epoch(); got != 1 {
		t.Fatalf("recovered open epoch %d, want 1", got)
	}
	if got := w.epochsPaid(t, ledger); got != 2 {
		t.Fatalf("ledger charged %d epochs after drain+recover, want 2 (epoch 0 and the newly opened epoch 1)", got)
	}
	w.send(t, svc, 200, 400)
	if _, err := svc.Drain(); err != nil {
		t.Fatal(err)
	}

	// Third cycle exhausts the 3-epoch budget; a fourth must recover
	// exhausted instead of collecting uncharged data.
	ledger = w.ledger(t)
	svc, err = service.Recover(w.config(ledger, dir, store.SyncBatch))
	if err != nil {
		t.Fatal(err)
	}
	if got := w.epochsPaid(t, ledger); got != 3 {
		t.Fatalf("ledger charged %d epochs after second recover, want 3", got)
	}
	w.send(t, svc, 400, 600)
	if _, err := svc.Drain(); err != nil {
		t.Fatal(err)
	}

	ledger = w.ledger(t)
	svc, err = service.Recover(w.config(ledger, dir, store.SyncBatch))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if !svc.Exhausted() {
		t.Fatal("fourth drain/recover cycle did not exhaust the 3-epoch budget")
	}
	clientSide, serverSide := net.Pipe()
	defer clientSide.Close()
	if err := svc.Ingest(serverSide); err == nil {
		t.Fatal("exhausted recovered service accepted a connection")
	}
	if hist := svc.History(); len(hist) != 3 {
		t.Fatalf("recovered %d sealed epochs, want 3", len(hist))
	}
}
