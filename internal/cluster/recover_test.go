package cluster_test

// Durable sealing: the checkpoint rename is a collection's one commit
// point. These tests stage directories through the store layer and
// assert that RecoverAnalyzer loads the newest checkpoint, refuses one
// it cannot honour (a ledger that cannot pay for it, a different NR),
// and refuses — without touching them — records an older build left
// past it; and that a Collect whose checkpoint cannot be written seals
// nothing.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"shuffledp/internal/ahe"
	"shuffledp/internal/budget"
	"shuffledp/internal/cluster"
	"shuffledp/internal/composition"
	"shuffledp/internal/ldp"
	"shuffledp/internal/protocol"
	"shuffledp/internal/rng"
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
	counts := make([]int, d)
	for i := 0; i < 2*(n+nr); i++ {
		counts[i%d]++
	}
	if err := cluster.StageCheckpoint(dir, fo, nr, 2, 2*n, counts); err != nil {
		t.Fatal(err)
	}

	ledger, err := budget.NewLedger(
		composition.Guarantee{Eps: 1, Delta: 1e-9},
		composition.Guarantee{Eps: 1, Delta: 1e-9},
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
	// One collection of 30 words, sealed under NR=24.
	counts := make([]int, d)
	counts[0] = 30
	if err := cluster.StageCheckpoint(dir, fo, 24, 1, 6, counts); err != nil {
		t.Fatal(err)
	}
	// A recovery under NR=24 loads the state.
	a1, err := cluster.RecoverAnalyzer(cluster.AnalyzerConfig{
		Topology: analyzerTopo(t), FO: fo, NR: 24, Priv: priv,
		DataDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	a1.Close()
	// A second recovery under a different NR must refuse the state.
	if _, err := cluster.RecoverAnalyzer(cluster.AnalyzerConfig{
		Topology: analyzerTopo(t), FO: fo, NR: 12, Priv: priv,
		DataDir: dir,
	}); err == nil {
		t.Fatal("recovery under a mismatched NR was accepted")
	}
}

// appendWordsRecord appends to dir's newest WAL segment the words
// record (type byte 1, now reserved) an older analyzer build logged a
// collection's revealed words in: the type, the little-endian
// collection id, the words.
func appendWordsRecord(t *testing.T, dir string, col uint32, words []uint64) {
	t.Helper()
	rec := binary.LittleEndian.AppendUint32([]byte{1}, col)
	appendRawRecord(t, dir, append(rec, transport.EncodeUint64s(words)...))
}

// appendRawRecord appends the record encoding rec to dir's newest WAL
// segment without going through the store, which refuses a segment
// holding a record it does not decode. It is framed as the store
// frames every record: big-endian length, the encoding, and a
// big-endian CRC32C of the encoding.
func appendRawRecord(t *testing.T, dir string, rec []byte) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segment in %s (%v)", dir, err)
	}
	frame := binary.BigEndian.AppendUint32(nil, uint32(len(rec)))
	frame = binary.BigEndian.AppendUint32(append(frame, rec...), crc32.Checksum(rec, crc32.MakeTable(crc32.Castagnoli)))
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// readFiles maps every file in dir to its bytes.
func readFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = b
	}
	return files
}

// The analyzer writes no WAL record, so a directory holding any record
// past its checkpoint was not left by this build: an older one logged a
// collection's words and then its rotation marker before checkpointing,
// so a crash could leave either or both. Recovery refuses it by name,
// with the record count — or, for the retired words record, the store
// refuses it by its type — before it loads or pays anything — and every
// file the directory held is left byte-for-byte as it was (Open starts
// a fresh, empty segment, as it does for every recovery), so a second
// attempt refuses the same records again.
func TestRecoverAnalyzerRefusesWALTail(t *testing.T) {
	const (
		d  = 8
		nr = 2
	)
	priv := sharedKey(t)
	fo := ldp.NewGRR(d, 2)
	meta := store.Meta{Oracle: fo.Name(), Domain: fo.Domain()}
	words := []uint64{1, 2, 3, 4, 5}
	// reopen appends through the store, past the checkpoint.
	reopen := func(t *testing.T, dir string, write func(*store.Store) error) {
		t.Helper()
		st, _, err := store.Open(dir, meta, store.SyncBatch)
		if err != nil {
			t.Fatal(err)
		}
		if err := write(st); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
	marker := func(st *store.Store) error { return st.Rotate(1, 2) }
	const wordsRefused = "unknown WAL record type 1"
	for _, tc := range []struct {
		name    string
		records int
		refused string // the error's text when the store refuses a record
		stage   func(t *testing.T, dir string)
	}{
		{"rotation marker", 1, "", func(t *testing.T, dir string) { reopen(t, dir, marker) }},
		{"drop", 1, "", func(t *testing.T, dir string) {
			reopen(t, dir, func(st *store.Store) error { return st.AppendDrop(1, store.DropLate, 3) })
		}},
		{"words", 1, wordsRefused, func(t *testing.T, dir string) { appendWordsRecord(t, dir, 1, words) }},
		{"words and marker", 2, wordsRefused, func(t *testing.T, dir string) {
			appendWordsRecord(t, dir, 1, words)
			// The marker sealing collection 1 and opening 2.
			rec := binary.LittleEndian.AppendUint32([]byte{store.RecordRotate}, 1)
			appendRawRecord(t, dir, binary.LittleEndian.AppendUint64(rec, 2))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			counts := make([]int, d)
			counts[3] = 7
			if err := cluster.StageCheckpoint(dir, fo, nr, 1, 5, counts); err != nil {
				t.Fatal(err)
			}
			tc.stage(t, dir)
			before := readFiles(t, dir)
			want := fmt.Sprintf("%s holds %d WAL record(s) past its checkpoint", dir, tc.records)
			if tc.refused != "" {
				want = tc.refused
			}
			for attempt := 1; attempt <= 2; attempt++ {
				ledger := testLedger(t)
				a, err := cluster.RecoverAnalyzer(cluster.AnalyzerConfig{
					Topology: analyzerTopo(t), FO: fo, NR: nr, Priv: priv,
					DataDir: dir, Ledger: ledger,
				})
				if err == nil {
					a.Close()
					t.Fatalf("attempt %d: RecoverAnalyzer accepted a directory with a WAL tail", attempt)
				}
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("attempt %d: RecoverAnalyzer error %q, want one containing %q", attempt, err, want)
				}
				if spent := ledger.Spent(); spent != (composition.Guarantee{}) {
					t.Fatalf("attempt %d: the refused recovery spent %+v of the ledger", attempt, spent)
				}
				after := readFiles(t, dir)
				for name, b := range before {
					if got, ok := after[name]; !ok || string(got) != string(b) {
						t.Fatalf("attempt %d: the refused recovery changed %s", attempt, name)
					}
				}
			}
		})
	}
}

// The checkpoint rename is the seal. A directory squatting on the
// checkpoint's temp path makes the write fail (EISDIR, which holds even
// for root, unlike a permission bit): Collect must return the error
// with nothing installed — collections, totals and estimates as before
// it ran, a copy of the directory recovering 0 collections — and once
// the obstacle is gone a second Collect of the same collection id seals
// bit-identical to protocol.PEOS.Run, the ledger having paid once.
func TestCollectFailedCheckpointSealsNothing(t *testing.T) {
	const (
		r        = 2
		n        = 24
		d        = 8
		nr       = 4
		fakeSeed = 81
		ldpSeed  = 90
	)
	priv := sharedKey(t)
	fo := ldp.NewGRR(d, 2)
	values := synthValues(n, d, 82)
	p, err := protocol.NewPEOS(fo, r, nr, priv, rng.New(99))
	if err != nil {
		t.Fatal(err)
	}
	p.FakeSource = refFakeSource(fakeSeed, r)
	ref, err := p.Run(values, rng.New(ldpSeed))
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	ledger := testLedger(t)
	h := startCluster(t, r, nr, fo, priv, fakeSeed, func(cfg *cluster.AnalyzerConfig) {
		cfg.DataDir = dir
		cfg.Ledger = ledger
	}, nil)
	cl, err := cluster.NewClient(cluster.ClientConfig{Topology: h.topo, FO: fo, Pub: ahe.PublicKey(priv), Source: rng.New(3)})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.SendValues(0, values, rng.New(ldpSeed)); err != nil {
		t.Fatal(err)
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}

	obstacle := filepath.Join(dir, "ckpt-00000001.snap.tmp")
	if err := os.Mkdir(obstacle, 0o755); err != nil {
		t.Fatal(err)
	}
	estimates := h.analyzer.Estimates()
	if _, err := h.analyzer.Collect(n); err == nil {
		t.Fatal("Collect sealed although its checkpoint could not be written")
	}
	if c := h.analyzer.Collections(); c != 0 {
		t.Fatalf("after the failed seal Collections() = %d, want 0", c)
	}
	if reals, fakes := h.analyzer.Totals(); reals != 0 || fakes != 0 {
		t.Fatalf("after the failed seal Totals() = (%d, %d), want (0, 0)", reals, fakes)
	}
	if !estimatesEqual(h.analyzer.Estimates(), estimates) {
		t.Fatalf("after the failed seal Estimates() = %v, want %v", h.analyzer.Estimates(), estimates)
	}

	// What a crash now would leave: a copy of the directory recovers no
	// collection.
	crashed := t.TempDir()
	for name, b := range readFiles(t, dir) {
		if err := os.WriteFile(filepath.Join(crashed, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rec, err := cluster.RecoverAnalyzer(cluster.AnalyzerConfig{
		Topology: analyzerTopo(t), FO: fo, NR: nr, Priv: priv, DataDir: crashed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if c := rec.Collections(); c != 0 {
		t.Fatalf("a copy of the directory recovered %d collections, want 0", c)
	}
	rec.Close()

	if err := os.Remove(obstacle); err != nil {
		t.Fatal(err)
	}
	col, err := h.analyzer.Collect(n)
	if err != nil {
		t.Fatal(err)
	}
	if col.Collection != 0 || !estimatesEqual(col.Estimates, ref.Estimates) {
		t.Fatalf("collection %d after the retry diverged from PEOS.Run:\n net %v\n ref %v", col.Collection, col.Estimates, ref.Estimates)
	}
	if !estimatesEqual(h.analyzer.Estimates(), ref.Estimates) {
		t.Fatal("cumulative estimate diverged after the retried seal")
	}
	if paid := epochsPaid(t, ledger); paid != 1 {
		t.Fatalf("the ledger paid for %d collections, want 1", paid)
	}
}
