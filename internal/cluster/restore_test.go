package cluster

import (
	"slices"
	"strings"
	"testing"

	"shuffledp/internal/budget"
	"shuffledp/internal/composition"
	"shuffledp/internal/ldp"
	"shuffledp/internal/store"
	"shuffledp/internal/transport"
)

// TestRestoreTailBothRoles drives the WAL-tail walker over five tails
// and pins what a marker demands — its words, the next unsealed
// collection, the last words record winning — and that words no marker
// followed are dropped (the collection never completed). The name is
// from when shards replayed a log too; the coordinator is the one role
// left with one. The analyzers are bare structs: restore touches no
// listener, key or store.
func TestRestoreTailBothRoles(t *testing.T) {
	const (
		d  = 8
		nr = 2
	)
	fo := ldp.NewGRR(d, 2)
	enc, err := ldp.NewWordEncoder(fo)
	if err != nil {
		t.Fatal(err)
	}
	stale := []uint64{7, 7, 7, 7, 7, 7}
	fresh := []uint64{0, 1, 1, 2, 5}
	wordsRec := func(col uint32, words []uint64) store.Record {
		return store.Record{Type: store.RecordReport, Epoch: col, Payload: transport.EncodeUint64s(words)}
	}
	marker := func(col uint32) store.Record {
		return store.Record{Type: store.RecordRotate, Epoch: col, Next: int64(col) + 1}
	}
	freshReports := make([]ldp.Report, len(fresh))
	for i, w := range fresh {
		freshReports[i] = enc.Decode(w)
	}
	freshCounts := ldp.SupportCounts(fo, freshReports)

	cases := []struct {
		name      string
		tail      []store.Record
		wantErr   string
		committed bool // the fresh words became collection 0
	}{
		{name: "marker-less words", tail: []store.Record{wordsRec(0, fresh)}},
		{name: "marker without words", tail: []store.Record{marker(0)}, wantErr: "0 without its words"},
		{name: "marker names the wrong collection", tail: []store.Record{wordsRec(1, fresh), marker(1)}, wantErr: "1 while 0 "},
		{name: "last words record wins", tail: []store.Record{wordsRec(0, stale), wordsRec(0, fresh), marker(0)}, committed: true},
		{name: "foreign record type", tail: []store.Record{{Type: store.RecordDrop}}, wantErr: "unexpected WAL record type"},
	}
	for _, tc := range cases {
		t.Run(tc.name+"/coordinator", func(t *testing.T) {
			ledger, err := budget.NewLedger(
				composition.Guarantee{Eps: 3, Delta: 3e-9},
				composition.Guarantee{Eps: 1, Delta: 1e-9},
				budget.Naive{},
			)
			if err != nil {
				t.Fatal(err)
			}
			a := &Analyzer{
				cfg:    AnalyzerConfig{FO: fo, NR: nr, Ledger: ledger},
				enc:    enc,
				counts: make([]int, d),
			}
			err = a.restore(&store.Recovered{Tail: tc.tail})
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("restore error = %v, want one containing %q", err, tc.wantErr)
				}
				if tc.tail[len(tc.tail)-1].Type == store.RecordRotate && !strings.Contains(err.Error(), "seals collection") {
					t.Fatalf("restore error = %v, want it to say what the marker does", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			wantCollections, wantReals, wantFakes, wantCounts := 0, 0, 0, make([]int, d)
			if tc.committed {
				wantCollections, wantReals, wantFakes, wantCounts = 1, len(fresh)-nr, nr, freshCounts
			}
			if a.collections != wantCollections || a.reals != wantReals || a.fakes != wantFakes || EpochsPaid(ledger) != wantCollections {
				t.Fatalf("replayed %d collections (%d reals, %d fakes, %d ledger charges), want %d (%d, %d, %d)",
					a.collections, a.reals, a.fakes, EpochsPaid(ledger), wantCollections, wantReals, wantFakes, wantCollections)
			}
			if !slices.Equal(a.counts, wantCounts) {
				t.Fatalf("counts = %v, want %v", a.counts, wantCounts)
			}
		})
	}
}
