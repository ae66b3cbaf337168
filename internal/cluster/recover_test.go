package cluster_test

// WAL-tail recovery: the crash window the analyzer cannot be driven
// into from the outside is "rotation marker durable, checkpoint lost".
// These tests build that exact on-disk state through the store layer
// and assert RecoverAnalyzer replays the seal — merging the logged
// words, paying the ledger for the sealed count, and re-writing the
// checkpoint — and that a words record without its marker (the
// collection never completed) is dropped.

import (
	"net"
	"strings"
	"testing"

	"shuffledp/internal/budget"
	"shuffledp/internal/cluster"
	"shuffledp/internal/composition"
	"shuffledp/internal/ldp"
	"shuffledp/internal/protocol"
	"shuffledp/internal/store"
	"shuffledp/internal/transport"
)

// analyzerTopo is a syntactically valid topology for recovery tests
// that never dial anything.
func analyzerTopo(t *testing.T) cluster.Topology {
	t.Helper()
	aln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := aln.Addr().String()
	aln.Close()
	return cluster.Topology{Shufflers: []string{"127.0.0.1:1", "127.0.0.1:2"}, Analyzers: []string{addr}}
}

func TestRecoverAnalyzerReplaysWALTail(t *testing.T) {
	const (
		d  = 8
		n  = 10
		nr = 3
	)
	priv := sharedKey(t)
	fo := ldp.NewGRR(d, 2)
	dir := t.TempDir()

	// The sealed collection's decoded words: n user reports (GRR words
	// are the bare values) plus nr fake words, which decode modulo the
	// group order like any protocol word.
	words := make([]uint64, 0, n+nr)
	for i := 0; i < n; i++ {
		words = append(words, uint64(i%d))
	}
	words = append(words, 1, 0xdeadbeef, 1<<40)

	st, err := store.Create(dir, store.Meta{Oracle: fo.Name(), Domain: fo.Domain()}, store.SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AppendReport(0, transport.EncodeUint64s(words)); err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	// Marker durable, checkpoint never written — the mid-seal crash.
	if err := st.Rotate(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	ledger, err := budget.NewLedger(
		composition.Guarantee{Eps: 3, Delta: 3e-9},
		composition.Guarantee{Eps: 1, Delta: 1e-9},
		budget.Naive{},
	)
	if err != nil {
		t.Fatal(err)
	}
	a, err := cluster.RecoverAnalyzer(cluster.AnalyzerConfig{
		Topology: analyzerTopo(t),
		FO:       fo,
		NR:       nr,
		Priv:     priv,
		DataDir:  dir,
		Sync:     store.SyncAlways,
		Ledger:   ledger,
	})
	if err != nil {
		t.Fatal(err)
	}
	if a.Collections() != 1 {
		t.Fatalf("replayed %d collections, want 1", a.Collections())
	}
	reals, fakes := a.Totals()
	if reals != n || fakes != nr {
		t.Fatalf("replayed totals (%d, %d), want (%d, %d)", reals, fakes, n, nr)
	}
	if cluster.EpochsPaid(ledger) != 1 {
		t.Fatalf("ledger recharged %d collections, want 1", cluster.EpochsPaid(ledger))
	}
	enc, err := ldp.NewWordEncoder(fo)
	if err != nil {
		t.Fatal(err)
	}
	reports := make([]ldp.Report, len(words))
	for i, w := range words {
		reports[i] = enc.Decode(w)
	}
	want := protocol.Estimate(fo, reports, n, nr)
	if !estimatesEqual(a.Estimates(), want) {
		t.Fatalf("replayed estimate diverged:\n got %v\nwant %v", a.Estimates(), want)
	}
	a.Close()

	// The replay re-wrote the checkpoint: a second recovery sees a
	// clean directory (empty tail) and the same state, charging
	// nothing further.
	ledger2, _ := budget.NewLedger(
		composition.Guarantee{Eps: 3, Delta: 3e-9},
		composition.Guarantee{Eps: 1, Delta: 1e-9},
		budget.Naive{},
	)
	a2, err := cluster.RecoverAnalyzer(cluster.AnalyzerConfig{
		Topology: analyzerTopo(t),
		FO:       fo,
		NR:       nr,
		Priv:     priv,
		DataDir:  dir,
		Sync:     store.SyncAlways,
		Ledger:   ledger2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a2.Close()
	if a2.Collections() != 1 || cluster.EpochsPaid(ledger2) != 1 {
		t.Fatalf("second recovery: %d collections, %d charges", a2.Collections(), cluster.EpochsPaid(ledger2))
	}
	if !estimatesEqual(a2.Estimates(), want) {
		t.Fatal("second recovery diverged")
	}
}

// A directory holding two sealed collections recovered under a ledger
// that affords one is refused: the ledger runs under other parameters
// than the collections were paid for under, and admitting it would
// fabricate a guarantee.
func TestRecoverAnalyzerRefusesUnpayableSealedCount(t *testing.T) {
	const (
		d  = 8
		n  = 10
		nr = 3
	)
	priv := sharedKey(t)
	fo := ldp.NewGRR(d, 2)
	dir := t.TempDir()
	words := make([]uint64, 0, n+nr)
	for i := 0; i < n+nr; i++ {
		words = append(words, uint64(i%d))
	}
	st, err := store.Create(dir, store.Meta{Oracle: fo.Name(), Domain: fo.Domain()}, store.SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	for col := uint32(0); col < 2; col++ {
		if err := st.AppendReport(col, transport.EncodeUint64s(words)); err != nil {
			t.Fatal(err)
		}
		if err := st.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := st.Rotate(col, int64(col)+1); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	ledger, err := budget.NewLedger(
		composition.Guarantee{Eps: 1, Delta: 1e-9},
		composition.Guarantee{Eps: 1, Delta: 1e-9},
		budget.Naive{},
	)
	if err != nil {
		t.Fatal(err)
	}
	a, err := cluster.RecoverAnalyzer(cluster.AnalyzerConfig{
		Topology: analyzerTopo(t),
		FO:       fo,
		NR:       nr,
		Priv:     priv,
		DataDir:  dir,
		Sync:     store.SyncAlways,
		Ledger:   ledger,
	})
	if err == nil {
		a.Close()
		t.Fatal("RecoverAnalyzer paid for 2 sealed collections on a one-collection ledger")
	}
	if !strings.Contains(err.Error(), "2 sealed collections exceed the total budget") {
		t.Fatalf("RecoverAnalyzer error %q does not name the sealed count", err)
	}
	if spent := ledger.Spent(); spent != (composition.Guarantee{}) {
		t.Fatalf("the refused recovery spent %+v of the ledger", spent)
	}
}

// Recovering with a different fake-report count than the state was
// collected under would silently mis-calibrate every estimate; it
// must be refused like any other durable-state mismatch.
func TestRecoverAnalyzerRefusesNRMismatch(t *testing.T) {
	const d = 8
	priv := sharedKey(t)
	fo := ldp.NewGRR(d, 2)
	dir := t.TempDir()
	st, err := store.Create(dir, store.Meta{Oracle: fo.Name(), Domain: fo.Domain()}, store.SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AppendReport(0, transport.EncodeUint64s(make([]uint64, 30))); err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := st.Rotate(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// First recovery seals the round under NR=24 and checkpoints it.
	a1, err := cluster.RecoverAnalyzer(cluster.AnalyzerConfig{
		Topology: analyzerTopo(t), FO: fo, NR: 24, Priv: priv,
		DataDir: dir, Sync: store.SyncAlways,
	})
	if err != nil {
		t.Fatal(err)
	}
	a1.Close()
	// A second recovery under a different NR must refuse the state.
	if _, err := cluster.RecoverAnalyzer(cluster.AnalyzerConfig{
		Topology: analyzerTopo(t), FO: fo, NR: 12, Priv: priv,
		DataDir: dir, Sync: store.SyncAlways,
	}); err == nil {
		t.Fatal("recovery under a mismatched NR was accepted")
	}
}

// Crash-recover-crash: a words record orphaned by one crash stays in
// the WAL behind the re-run round's authoritative record. Recovery
// must let the later record supersede the orphan — not fail — and
// seal the later one's contents.
func TestRecoverAnalyzerSupersedesOrphanWords(t *testing.T) {
	const (
		d  = 8
		n  = 27
		nr = 3
	)
	priv := sharedKey(t)
	fo := ldp.NewGRR(d, 2)
	dir := t.TempDir()
	st, err := store.Create(dir, store.Meta{Oracle: fo.Name(), Domain: fo.Domain()}, store.SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	orphan := make([]uint64, n+nr) // all value 0
	authoritative := make([]uint64, n+nr)
	for i := range authoritative {
		authoritative[i] = 2
	}
	if err := st.AppendReport(0, transport.EncodeUint64s(orphan)); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendReport(0, transport.EncodeUint64s(authoritative)); err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := st.Rotate(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	a, err := cluster.RecoverAnalyzer(cluster.AnalyzerConfig{
		Topology: analyzerTopo(t), FO: fo, NR: nr, Priv: priv,
		DataDir: dir, Sync: store.SyncAlways,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if a.Collections() != 1 {
		t.Fatalf("replayed %d collections, want 1", a.Collections())
	}
	// All authoritative words were value 2; the orphan's zeros must
	// have left no trace in the estimate.
	enc, err := ldp.NewWordEncoder(fo)
	if err != nil {
		t.Fatal(err)
	}
	reports := make([]ldp.Report, len(authoritative))
	for i, w := range authoritative {
		reports[i] = enc.Decode(w)
	}
	if want := protocol.Estimate(fo, reports, n, nr); !estimatesEqual(a.Estimates(), want) {
		t.Fatalf("recovery did not seal the authoritative record:\n got %v\nwant %v", a.Estimates(), want)
	}
}

func TestRecoverAnalyzerDropsUnsealedWords(t *testing.T) {
	const nr = 2
	priv := sharedKey(t)
	fo := ldp.NewGRR(8, 2)
	dir := t.TempDir()
	st, err := store.Create(dir, store.Meta{Oracle: fo.Name(), Domain: fo.Domain()}, store.SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	// Words logged, no rotation marker: the collection never sealed,
	// so its Collect never returned success and recovery must drop it.
	if err := st.AppendReport(0, transport.EncodeUint64s([]uint64{1, 2, 3, 4, 5})); err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	a, err := cluster.RecoverAnalyzer(cluster.AnalyzerConfig{
		Topology: analyzerTopo(t),
		FO:       fo,
		NR:       nr,
		Priv:     priv,
		DataDir:  dir,
		Sync:     store.SyncAlways,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if a.Collections() != 0 {
		t.Fatalf("unsealed words produced %d collections", a.Collections())
	}
	if reals, fakes := a.Totals(); reals != 0 || fakes != 0 {
		t.Fatalf("unsealed words merged: (%d, %d)", reals, fakes)
	}
}

// TestRecoverAnalyzerReplaysInterruptedRetry covers the ledger
// idempotence of a retried round end to end: a collection whose first
// attempts were aborted by faults still seals exactly once, so its WAL
// footprint is one words record plus one rotation marker — identical
// to a clean round, because aborted attempts write nothing durable.
// The test builds a checkpointed first collection, then appends a
// second collection's seal through the store layer and "crashes"
// before its checkpoint (the retried round's worst-case window), and
// asserts recovery charges the ledger exactly once for the tail:
// Restore(1) from the checkpoint plus a single re-charge, never one
// charge per attempt.
func TestRecoverAnalyzerReplaysInterruptedRetry(t *testing.T) {
	const (
		d  = 8
		n  = 10
		nr = 3
	)
	priv := sharedKey(t)
	fo := ldp.NewGRR(d, 2)
	dir := t.TempDir()
	meta := store.Meta{Oracle: fo.Name(), Domain: fo.Domain()}

	words := func(base uint64) []uint64 {
		ws := make([]uint64, 0, n+nr)
		for i := 0; i < n; i++ {
			ws = append(ws, (base+uint64(i))%d)
		}
		return append(ws, 2, 0xfeedface, 1<<41)
	}
	col0, col1 := words(0), words(5)

	st, err := store.Create(dir, meta, store.SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AppendReport(0, transport.EncodeUint64s(col0)); err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := st.Rotate(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	newLedger := func() *budget.Ledger {
		l, err := budget.NewLedger(
			composition.Guarantee{Eps: 3, Delta: 3e-9},
			composition.Guarantee{Eps: 1, Delta: 1e-9},
			budget.Naive{},
		)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}

	// First recovery seals collection 0 and writes the checkpoint —
	// the durable baseline the retried round builds on.
	ledger := newLedger()
	a, err := cluster.RecoverAnalyzer(cluster.AnalyzerConfig{
		Topology: analyzerTopo(t),
		FO:       fo,
		NR:       nr,
		Priv:     priv,
		DataDir:  dir,
		Sync:     store.SyncAlways,
		Ledger:   ledger,
	})
	if err != nil {
		t.Fatal(err)
	}
	if a.Collections() != 1 || cluster.EpochsPaid(ledger) != 1 {
		t.Fatalf("baseline recovery: %d collections, %d charges", a.Collections(), cluster.EpochsPaid(ledger))
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	// Collection 1 retries, eventually seals, and the process dies
	// after the rotation marker but before the checkpoint. However many
	// attempts the round took, the WAL carries the seal once.
	st, _, err = store.Open(dir, meta, store.SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AppendReport(1, transport.EncodeUint64s(col1)); err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := st.Rotate(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	ledger2 := newLedger()
	a2, err := cluster.RecoverAnalyzer(cluster.AnalyzerConfig{
		Topology: analyzerTopo(t),
		FO:       fo,
		NR:       nr,
		Priv:     priv,
		DataDir:  dir,
		Sync:     store.SyncAlways,
		Ledger:   ledger2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a2.Close()
	if a2.Collections() != 2 {
		t.Fatalf("recovered %d collections, want 2", a2.Collections())
	}
	if cluster.EpochsPaid(ledger2) != 2 {
		t.Fatalf("ledger charged %d epochs, want exactly 2 (the checkpoint's collection and the tail's)", cluster.EpochsPaid(ledger2))
	}
	reals, fakes := a2.Totals()
	if reals != 2*n || fakes != 2*nr {
		t.Fatalf("recovered totals (%d, %d), want (%d, %d)", reals, fakes, 2*n, 2*nr)
	}
	enc, err := ldp.NewWordEncoder(fo)
	if err != nil {
		t.Fatal(err)
	}
	all := append(append([]uint64{}, col0...), col1...)
	reports := make([]ldp.Report, len(all))
	for i, w := range all {
		reports[i] = enc.Decode(w)
	}
	want := protocol.Estimate(fo, reports, 2*n, 2*nr)
	if !estimatesEqual(a2.Estimates(), want) {
		t.Fatalf("recovered estimate diverged:\n got %v\nwant %v", a2.Estimates(), want)
	}
}
