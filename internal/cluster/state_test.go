package cluster

import (
	"bytes"
	"encoding/binary"
	"slices"
	"strings"
	"testing"

	"shuffledp/internal/ldp"
)

// TestStateBlobRefusesOtherVersions: the analyzer's state blob has one
// version. A version-1 blob round-trips; every other version — the
// retired version 2 (well-formed, with its documented window-tally
// tail, or without one) and a later one — is refused by number, and a
// version-1 blob of the wrong length is refused too.
func TestStateBlobRefusesOtherVersions(t *testing.T) {
	const d, nr = 8, 2
	fo := ldp.NewGRR(d, 2)
	old := &Analyzer{
		cfg:         AnalyzerConfig{FO: fo, NR: nr},
		counts:      []int{5, 0, 3, 1, 0, 0, 9, 2},
		reals:       36,
		fakes:       4,
		collections: 2,
	}
	v1 := old.marshalState(old.collections, old.reals, old.fakes, make([]int, d))
	if v1[4] != 1 {
		t.Fatalf("marshalState wrote version %d", v1[4])
	}
	a := &Analyzer{cfg: AnalyzerConfig{FO: fo, NR: nr}, counts: make([]int, d)}
	if err := a.unmarshalState(v1); err != nil {
		t.Fatalf("version-1 blob: %v", err)
	}
	if !slices.Equal(a.counts, old.counts) || a.reals != old.reals || a.fakes != old.fakes || a.collections != old.collections {
		t.Fatalf("restored (%v, %d reals, %d fakes, %d collections), want (%v, %d, %d, %d)",
			a.counts, a.reals, a.fakes, a.collections, old.counts, old.reals, old.fakes, old.collections)
	}
	if got := a.marshalState(a.collections, a.reals, a.fakes, make([]int, d)); !bytes.Equal(got, v1) {
		t.Fatalf("round trip wrote\n%x, want\n%x", got, v1)
	}

	// relabel returns blob with its version byte replaced.
	relabel := func(blob []byte, version byte) []byte {
		out := append([]byte(nil), blob...)
		out[4] = version
		return out
	}
	// The retired v2 tail: [words u64][support counts u64 × d].
	v2 := binary.LittleEndian.AppendUint64(relabel(v1, 2), 20)
	for v := 0; v < d; v++ {
		v2 = binary.LittleEndian.AppendUint64(v2, uint64(v))
	}
	for _, tc := range []struct {
		name    string
		blob    []byte
		version string // the number the error must name, "" for a length error
	}{
		{"well-formed version 2", v2, "version 2"},
		{"version 2 without a tail", relabel(v1, 2), "version 2"},
		{"version 3", relabel(v1, 3), "version 3"},
		{"version 1 one byte short", v1[:len(v1)-1], ""},
		{"version 1 one byte long", append(relabel(v1, 1), 0), ""},
	} {
		b := &Analyzer{cfg: AnalyzerConfig{FO: fo, NR: nr}, counts: make([]int, d)}
		err := b.unmarshalState(tc.blob)
		if err == nil {
			t.Errorf("%s: blob accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.version) {
			t.Errorf("%s: error %q does not name %q", tc.name, err, tc.version)
		}
	}
}
