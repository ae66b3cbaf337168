package ldp

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"shuffledp/internal/rng"
)

// The hash layer's work count: how many (report, value) pairs the
// accumulator hands hash.Family.CountSupport per report, at each
// service shape (the d and d' of the service workloads) and two report
// counts — one client batch, and several lhBlock blocks plus a ragged
// tail. Reports take the service's fold path: word batches of 256
// folded into two worker aggregators, merged into an epoch root, the
// root cloned into an all-time aggregate, and both estimated. Every
// report must be swept against every value exactly once, so the count
// is d per report; a change that counts a staged block twice, or skips
// one, shows up as a diff of testdata/support_pairs.golden.
func TestSupportPairsPerReportGolden(t *testing.T) {
	shapes := []struct {
		name      string
		d, dPrime int
	}{
		{"svc_wire_d64", 64, 16},
		{"svc_durable_query_d1024", 1024, 64},
		{"svc_agg_kosarak", 42178, 111},
	}
	const batch = 256
	var got strings.Builder
	got.WriteString("# shape d d' reports pairs pairs_per_report\n")
	for _, sh := range shapes {
		fo := NewSOLH(sh.d, sh.dPrime, 1)
		enc, err := NewWordEncoder(fo)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{batch, 3*lhBlock + 17} {
			r := rng.New(uint64(n))
			words := make([]uint64, n)
			for i := range words {
				words[i] = r.Uint64n(enc.GroupOrder())
			}
			pairs := SupportPairs(func() {
				workers := []Aggregator{fo.NewAggregator(), fo.NewAggregator()}
				for off := 0; off < n; off += batch {
					enc.AddWords(workers[off/batch%2], words[off:min(off+batch, n)])
				}
				root, allTime := fo.NewAggregator(), fo.NewAggregator()
				for _, w := range workers {
					root.Merge(w)
				}
				allTime.Merge(root.Clone())
				root.Estimates()
				allTime.Estimates()
			})
			fmt.Fprintf(&got, "%s %d %d %d %d %g\n", sh.name, sh.d, sh.dPrime, n, pairs, float64(pairs)/float64(n))
		}
	}
	want, err := os.ReadFile("testdata/support_pairs.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("support pairs changed:\n got:\n%s want:\n%s", got.String(), want)
	}
}
