package hash

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"shuffledp/internal/rng"
)

// TestSupportStagingGolden is the staging half of the hash layer's work
// count (ROADMAP item 16), beside ldp's TestSupportPairsPerReportGolden,
// which counts the pairs: at each service shape (the d and d' of the
// service workloads), reports folded through CountSupport a 512-report
// block at a time (ldp's lhBlock) as the accumulator folds them, one
// block and several blocks plus a ragged tail. Every staged report must
// be expanded exactly once (one Sum64Uint64 pair), and the bucket
// bounds must cost 2·d' divisions per call below sweepMinOutputSize
// (the table) and two per report at and above it. Both kernels stage
// the same work, so both read the one golden.
func TestSupportStagingGolden(t *testing.T) {
	const block = 512
	shapes := []struct {
		name      string
		d, dPrime int
	}{
		{"svc_wire_d64", 64, 16},
		{"svc_durable_query_d1024", 1024, 64},
		{"svc_agg_kosarak", 42178, 111},
	}
	want, err := os.ReadFile("testdata/support_staging.golden")
	if err != nil {
		t.Fatal(err)
	}
	forKernels(t, func(t *testing.T) {
		var got strings.Builder
		got.WriteString("# shape d d' reports calls expansions divisions expansions_per_report divisions_per_call divisions_per_report\n")
		for _, sh := range shapes {
			fam := NewFamily(sh.dPrime)
			counts := make([]int, sh.d)
			for _, n := range []int{block, 3*block + 17} {
				r := rng.New(uint64(n))
				seeds, ys := make([]uint64, n), make([]uint64, n)
				for i := range seeds {
					seeds[i], ys[i] = uint64(uint32(r.Uint64())), r.Uint64n(uint64(sh.dPrime))
				}
				calls := 0
				expansions, divisions := countStaging(func() {
					for b := 0; b < n; b += block {
						fam.CountSupport(seeds[b:min(b+block, n)], ys[b:min(b+block, n)], counts)
						calls++
					}
				})
				fmt.Fprintf(&got, "%s %d %d %d %d %d %d %g %g %g\n", sh.name, sh.d, sh.dPrime, n, calls, expansions, divisions,
					float64(expansions)/float64(n), float64(divisions)/float64(calls), float64(divisions)/float64(n))
			}
		}
		if got.String() != string(want) {
			t.Fatalf("staging work changed:\n got:\n%s want:\n%s", got.String(), want)
		}
	})
}
