package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"shuffledp/internal/ahe"
	"shuffledp/internal/ldp"
	"shuffledp/internal/rng"
	"shuffledp/internal/transport"
)

// TestCutsTileTheVectorExactly pins the one rule every role derives its
// windows from: the even cuts tile [0, total) exactly, in order, with
// window sizes at most one word apart — at every tier size up to the
// largest a Topology may name, with more analyzers than words, and with
// total·A past 2³¹ (the product is taken in int64).
func TestCutsTileTheVectorExactly(t *testing.T) {
	for _, analyzers := range []int{1, 2, 3, 7, maxAnalyzers} {
		for _, total := range []int{0, 1, 2, 7, 100, 101, 4096, 1 << 20, math.MaxUint32} {
			cuts := evenCuts(total, analyzers)
			if len(cuts) != analyzers+1 || cuts[0] != 0 || cuts[analyzers] != total {
				t.Fatalf("A=%d total=%d: cuts %v do not span the vector", analyzers, total, cuts)
			}
			lo, hi := total, 0
			for s := 0; s < analyzers; s++ {
				w := cuts[s+1] - cuts[s]
				if w < 0 {
					t.Fatalf("A=%d total=%d: window %d runs backwards (%d..%d)", analyzers, total, s, cuts[s], cuts[s+1])
				}
				lo, hi = min(lo, w), max(hi, w)
			}
			if hi-lo > 1 {
				t.Fatalf("A=%d total=%d: window sizes range %d..%d, want at most one apart", analyzers, total, lo, hi)
			}
		}
	}

	// The seal carries A as a u16 and evenCuts multiplies by it, so the
	// Topology is where the tier size is bounded.
	topo := Topology{Shufflers: []string{"s0", "s1"}, Analyzers: slices.Repeat([]string{"a"}, maxAnalyzers)}
	if err := topo.validate(); err != nil {
		t.Fatalf("a %d-analyzer topology: %v", maxAnalyzers, err)
	}
	topo.Analyzers = append(topo.Analyzers, "a")
	if err := topo.validate(); err == nil || !strings.Contains(err.Error(), "4097 analyzer shards") {
		t.Fatalf("a %d-analyzer topology: %v", maxAnalyzers+1, err)
	}
}

// TestAnalyzerCountMismatchRefused stands one real node at a time
// against a hand-written peer that was configured for a different tier
// size: a shuffler and a shard each refuse the seal, the coordinator
// refuses the shard hello. Nobody ships a cut list any more, so this
// check is what keeps two roles from slicing one vector differently.
func TestAnalyzerCountMismatchRefused(t *testing.T) {
	priv, err := ahe.GenerateDGK(512, 64)
	if err != nil {
		t.Fatal(err)
	}
	fo := ldp.NewGRR(8, 2)
	t.Run("shuffler refuses the seal", func(t *testing.T) {
		coord := newScriptedCoordinator(t)
		sh, err := NewShuffler(ShufflerConfig{
			Index:    0,
			Topology: Topology{Shufflers: []string{"127.0.0.1:0", "127.0.0.1:0"}, Analyzers: []string{coord.addr()}},
			Pub:      ahe.PublicKey(priv),
			Source:   rng.New(1),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer sh.Close()
		runErr := make(chan error, 1)
		go func() { runErr <- sh.Run() }()
		conn, tag, _ := coord.accept()
		if tag != tagShufflerHello {
			t.Fatalf("shuffler opened its control link with tag %d", tag)
		}
		if err := transport.WriteTaggedFrame(conn, tagSeal, sealPayload(gen{}, 10, 2)); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-runErr:
			if !errors.Is(err, errBadFrame) || !strings.Contains(err.Error(), "seal names 2 analyzer windows, topology has 1") {
				t.Fatalf("Run returned %v, want the refused seal naming both counts", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("the shuffler kept running on a seal cut for another tier")
		}
	})

	t.Run("shard refuses the seal", func(t *testing.T) {
		coord := newScriptedCoordinator(t)
		shard, err := NewAnalyzer(AnalyzerConfig{
			Topology: Topology{Shufflers: []string{"s0", "s1"}, Analyzers: []string{coord.addr(), "127.0.0.1:0"}},
			FO:       fo,
			Priv:     priv,
			Shard:    1,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer shard.Close()
		conn, tag, hello := coord.accept()
		if tag != tagShardHello || !bytes.Equal(hello, []byte{0, 1, 0, 2}) {
			t.Fatalf("shard hello: tag %d payload %x, want [shard 1][analyzers 2]", tag, hello)
		}
		if err := transport.WriteTaggedFrame(conn, tagSeal, sealPayload(gen{}, 10, 3)); err != nil {
			t.Fatal(err)
		}
		// The refusal drops the link; the shard's control loop redials.
		if _, tag, _ := coord.accept(); tag != tagShardHello {
			t.Fatalf("after the refused seal the shard sent tag %d, want a fresh hello", tag)
		}
		shard.stateMu.Lock()
		armed := shard.f.cur != nil
		shard.stateMu.Unlock()
		if armed {
			t.Fatal("the shard armed an attempt from a seal cut for another tier")
		}
	})

	t.Run("coordinator refuses the shard hello", func(t *testing.T) {
		coord, err := NewAnalyzer(AnalyzerConfig{
			Topology: Topology{Shufflers: []string{"s0", "s1"}, Analyzers: []string{"127.0.0.1:0", "a1"}},
			FO:       fo,
			Priv:     priv,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer coord.Close()
		conn, err := net.Dial("tcp", coord.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if err := transport.WriteTaggedFrame(conn, tagShardHello, shardHelloPayload(1, 3)); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		if _, err := conn.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
			t.Fatalf("read on a refused shard link: %v, want EOF", err)
		}
		coord.mu.Lock()
		registered := coord.peers[2] != nil // R = 2, so shard 1's slot
		coord.mu.Unlock()
		if registered {
			t.Fatal("the coordinator registered a shard configured for another tier")
		}
	})
}

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
