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
// folded into two worker aggregators per epoch over two epochs, each
// epoch's workers merged into its root and the root's estimate frozen
// at the seal, and the sealed roots clone-merged and estimated as
// EstimateWindow does. Every
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
				// Epoch 0 takes the first half of the batches, epoch 1
				// the rest.
				batches := (n + batch - 1) / batch
				var sealed []Aggregator
				for e := range 2 {
					workers := []Aggregator{fo.NewAggregator(), fo.NewAggregator()}
					for b := e * batches / 2; b < (e+1)*batches/2; b++ {
						enc.AddWords(workers[b%2], words[b*batch:min((b+1)*batch, n)])
					}
					root := fo.NewAggregator()
					for _, w := range workers {
						root.Merge(w)
					}
					root.Estimates()
					sealed = append(sealed, root)
				}
				window := sealed[0].Clone()
				window.Merge(sealed[1].Clone())
				window.Estimates()
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
