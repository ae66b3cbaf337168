package ldp

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"shuffledp/internal/rng"
)

// The durability contract: UnmarshalBinary(MarshalBinary(agg)) is
// estimate- and count-identical for every oracle, the blob is
// canonical (re-marshaling the restored aggregator reproduces it byte
// for byte), and the restored aggregator keeps working (Add/Merge land
// in the right counts).
func TestAggregatorStateRoundTrip(t *testing.T) {
	for name, fo := range mergeOracles() {
		t.Run(name, func(t *testing.T) {
			const n = 3000
			r := rng.New(7)
			d := fo.Domain()
			agg := fo.NewAggregator()
			for i := 0; i < n; i++ {
				agg.Add(fo.Randomize(i%d, r))
			}
			blob, err := agg.MarshalBinary()
			if err != nil {
				t.Fatalf("MarshalBinary: %v", err)
			}
			restored, err := UnmarshalAggregator(fo, blob)
			if err != nil {
				t.Fatalf("UnmarshalAggregator: %v", err)
			}
			if restored.Count() != agg.Count() {
				t.Fatalf("restored count %d, want %d", restored.Count(), agg.Count())
			}
			want, got := agg.Estimates(), restored.Estimates()
			for v := range want {
				if want[v] != got[v] {
					t.Fatalf("estimate[%d]: restored %v, marshaled %v", v, got[v], want[v])
				}
			}
			blob2, err := restored.MarshalBinary()
			if err != nil {
				t.Fatalf("re-marshal: %v", err)
			}
			if !bytes.Equal(blob, blob2) {
				t.Fatalf("blob is not canonical: re-marshaling the restored aggregator changed %d -> %d bytes or content",
					len(blob), len(blob2))
			}

			// The restored aggregator must stay live: folding the same
			// extra reports into both sides keeps them identical.
			extra := fo.NewAggregator()
			r2 := rng.New(8)
			for i := 0; i < 100; i++ {
				rep := fo.Randomize(i%d, r2)
				agg.Add(rep)
				extra.Add(rep)
			}
			restored.Merge(extra)
			want, got = agg.Estimates(), restored.Estimates()
			for v := range want {
				if want[v] != got[v] {
					t.Fatalf("post-restore Add/Merge diverged at estimate[%d]", v)
				}
			}
		})
	}
}

// An empty aggregator round-trips too (the shape of a freshly rotated
// epoch root at checkpoint time).
func TestAggregatorStateRoundTripEmpty(t *testing.T) {
	for name, fo := range mergeOracles() {
		t.Run(name, func(t *testing.T) {
			blob, err := fo.NewAggregator().MarshalBinary()
			if err != nil {
				t.Fatalf("MarshalBinary: %v", err)
			}
			restored, err := UnmarshalAggregator(fo, blob)
			if err != nil {
				t.Fatalf("UnmarshalAggregator: %v", err)
			}
			if restored.Count() != 0 {
				t.Fatalf("restored empty aggregator reports count %d", restored.Count())
			}
		})
	}
}

// Cross-loading state between oracles — or between different
// parameterizations of the same oracle — must error, not silently
// mis-calibrate.
func TestAggregatorStateRejectsMismatch(t *testing.T) {
	oracles := mergeOracles()
	blobs := map[string][]byte{}
	for name, fo := range oracles {
		agg := fo.NewAggregator()
		r := rng.New(3)
		for i := 0; i < 50; i++ {
			agg.Add(fo.Randomize(i%fo.Domain(), r))
		}
		blob, err := agg.MarshalBinary()
		if err != nil {
			t.Fatalf("%s: MarshalBinary: %v", name, err)
		}
		blobs[name] = blob
	}
	for from, blob := range blobs {
		for to, fo := range oracles {
			if from == to {
				continue
			}
			if _, err := UnmarshalAggregator(fo, blob); err == nil {
				t.Errorf("loading %s state into a %s aggregator succeeded", from, to)
			}
		}
	}
	// Same oracle family, different epsilon: the probability echo in
	// the header must catch it.
	blob := blobs["GRR"]
	if _, err := UnmarshalAggregator(NewGRR(32, 2.5), blob); err == nil {
		t.Error("loading GRR(eps=1.5) state into GRR(eps=2.5) succeeded")
	}
}

// A blob stamped with a future format version is refused with
// ErrStateVersion and no partial load.
func TestAggregatorStateFutureVersion(t *testing.T) {
	fo := NewGRR(8, 1)
	agg := fo.NewAggregator()
	agg.Add(Report{Value: 3})
	blob, err := agg.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	blob[0] = aggStateVersion + 1
	restored := fo.NewAggregator()
	if err := restored.UnmarshalBinary(blob); err == nil {
		t.Fatal("future-version blob loaded without error")
	}
	if restored.Count() != 0 {
		t.Fatalf("failed load left partial state: count %d", restored.Count())
	}
}

// Support counts folded under the retired xxHash64-per-pair family
// (kind byte 2) mean nothing under the current one. The fixture is a
// SOLH(d=32, d'=8, eps=2) aggregator blob written by the last build
// that used that family: every echoed parameter matches the receiver,
// so the kind byte is the only thing standing between it and a silent
// merge.
func TestAggregatorStateRefusesRetiredHashFamily(t *testing.T) {
	blob, err := os.ReadFile("testdata/solh_xxhash_kind2.bin")
	if err != nil {
		t.Fatal(err)
	}
	fo := NewSOLH(32, 8, 2)
	agg := fo.NewAggregator()
	if err := agg.UnmarshalBinary(blob); err == nil || !strings.Contains(err.Error(), "retired xxHash64 family") {
		t.Fatalf("UnmarshalBinary(kind-2 blob): err = %v, want a retired-family refusal", err)
	}
	if agg.Count() != 0 {
		t.Fatalf("refused load left partial state: count %d", agg.Count())
	}
	if _, err := UnmarshalAggregator(fo, blob); err == nil {
		t.Fatal("UnmarshalAggregator(kind-2 blob) succeeded")
	}
	// Control: with the kind byte rewritten the same bytes load, so the
	// refusal above is the kind check and not a parameter mismatch.
	relabeled := append([]byte(nil), blob...)
	relabeled[1] = kindLocalHash
	if _, err := UnmarshalAggregator(fo, relabeled); err != nil {
		t.Fatalf("relabeled fixture does not load: %v", err)
	}
	// And the current build never writes the retired byte.
	fresh, err := fo.NewAggregator().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if fresh[1] == kindLocalHashXXH64 {
		t.Fatalf("local-hash aggregator wrote the retired kind %d", fresh[1])
	}
}

// FuzzAggregatorState: decoding arbitrary bytes into any oracle's
// aggregator never panics, and whenever it succeeds the accepted blob
// is canonical (re-marshaling reproduces it). The retired kinds' blobs
// seed it beside the live ones.
func FuzzAggregatorState(f *testing.F) {
	oracles := []FrequencyOracle{
		NewGRR(8, 1),
		NewSOLH(8, 4, 1),
		NewOLH(8, 1),
	}
	for _, fo := range oracles {
		agg := fo.NewAggregator()
		r := rng.New(1)
		for i := 0; i < 20; i++ {
			agg.Add(fo.Randomize(i%fo.Domain(), r))
		}
		blob, err := agg.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	for _, name := range retiredStateGoldens {
		blob, err := os.ReadFile(filepath.Join("testdata", "state", name+".bin"))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	f.Add([]byte{})
	f.Add([]byte{aggStateVersion})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, fo := range oracles {
			agg, err := UnmarshalAggregator(fo, data)
			if err != nil {
				continue
			}
			blob, err := agg.MarshalBinary()
			if err != nil {
				t.Fatalf("%s: accepted blob failed to re-marshal: %v", fo.Name(), err)
			}
			if !bytes.Equal(blob, data) {
				t.Fatalf("%s: accepted blob is not canonical", fo.Name())
			}
		}
	})
}

var updateState = flag.Bool("update", false, "rewrite the aggregator state fixtures in testdata/state")

// stateGoldens is one small aggregation per state kind and
// parameterisation. Every case has its own oracle, so each blob must
// be refused by every other row's. A row's seed is fixed with the row,
// not drawn from its position, so the blobs do not move when a row
// leaves the table.
var stateGoldens = []struct {
	name string
	fo   FrequencyOracle
	n    int    // reports aggregated; the local-hash rows end mid-block
	seed uint64 // seeds the reports: rng.New(1000 + seed)
}{
	{"grr", NewGRR(12, 1.5), 300, 0},
	{"olh", NewOLH(20, 2), lhBlock + 188, 1},
	{"solh", NewSOLH(20, 5, 1.2), lhBlock + 188, 2},
	{"solh_empty", NewSOLH(20, 6, 1.2), 0, 3},
}

// retiredStateGoldens are blobs of aggregator kinds this build no longer
// has, each written before its aggregator left the repository: oue.bin
// is an OUE aggregation (kind 6); had.bin a Hadamard one (kind 3);
// rap.bin and rap_r.bin unary-encoding ones (kind 4, RAP_R at removal
// budget 0.8); aue.bin and aue_rounds.bin AUE ones (kind 5, the latter
// with gamma > 1). Every oracle must refuse them.
var retiredStateGoldens = []string{"oue", "had", "rap", "rap_r", "aue", "aue_rounds"}

// stateRecord is what a .want fixture holds: the aggregator's Count,
// then the bits of every estimate.
func stateRecord(agg Aggregator) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d\n", agg.Count())
	for _, e := range agg.Estimates() {
		fmt.Fprintf(&b, "%016x\n", math.Float64bits(e))
	}
	return b.String()
}

// The durability contract across builds, not only within one: the
// fixtures in testdata/state were written by the build before the
// count aggregators became one accumulator (-update rewrites them from
// the same seeded reports). Each must load into a fresh aggregator of
// its oracle, report the recorded Count and Estimates bit for bit,
// re-marshal byte-identically, and be refused by every other oracle in
// the table; and this build must still write the same bytes. A retired
// kind's blob must be refused by every oracle in the table.
func TestAggregatorStateGolden(t *testing.T) {
	for _, tc := range stateGoldens {
		t.Run(tc.name, func(t *testing.T) {
			agg := tc.fo.NewAggregator()
			r := rng.New(1000 + tc.seed)
			for j := 0; j < tc.n; j++ {
				agg.Add(tc.fo.Randomize(j%tc.fo.Domain(), r))
			}
			fresh, err := agg.MarshalBinary()
			if err != nil {
				t.Fatalf("MarshalBinary: %v", err)
			}
			blobPath := filepath.Join("testdata", "state", tc.name+".bin")
			wantPath := filepath.Join("testdata", "state", tc.name+".want")
			if *updateState {
				if err := os.MkdirAll(filepath.Dir(blobPath), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(blobPath, fresh, 0o644); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(wantPath, []byte(stateRecord(agg)), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			blob, err := os.ReadFile(blobPath)
			if err != nil {
				t.Fatalf("missing fixture (run with -update to create): %v", err)
			}
			want, err := os.ReadFile(wantPath)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(fresh, blob) {
				t.Errorf("this build marshals the same reports to different bytes than %s", blobPath)
			}
			restored, err := UnmarshalAggregator(tc.fo, blob)
			if err != nil {
				t.Fatalf("UnmarshalAggregator: %v", err)
			}
			if got := stateRecord(restored); got != string(want) {
				t.Errorf("restored count and estimate bits\n%swant\n%s", got, want)
			}
			again, err := restored.MarshalBinary()
			if err != nil {
				t.Fatalf("re-marshal: %v", err)
			}
			if !bytes.Equal(again, blob) {
				t.Error("re-marshaling the restored aggregator changed the blob")
			}
			for _, other := range stateGoldens {
				if other.name == tc.name {
					continue
				}
				if _, err := UnmarshalAggregator(other.fo, blob); err == nil {
					t.Errorf("%s state loaded into the %s row's aggregator", tc.name, other.name)
				}
			}
		})
	}
	for _, name := range retiredStateGoldens {
		t.Run(name, func(t *testing.T) {
			blob, err := os.ReadFile(filepath.Join("testdata", "state", name+".bin"))
			if err != nil {
				t.Fatal(err)
			}
			for _, other := range stateGoldens {
				if _, err := UnmarshalAggregator(other.fo, blob); err == nil {
					t.Errorf("retired %s state loaded into the %s row's aggregator", name, other.name)
				}
			}
		})
	}
}
