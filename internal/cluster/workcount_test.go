package cluster_test

import (
	"os"
	"sync/atomic"
	"testing"

	"shuffledp/internal/ahe"
	"shuffledp/internal/cluster"
	"shuffledp/internal/ldp"
	"shuffledp/internal/protocol"
	"shuffledp/internal/rng"
)

// countingKey wraps the server's key pair and counts the ciphertexts of
// the four DGK operations a PEOS round pays for. Every role takes its
// key as an ahe.PublicKey or ahe.PrivateKey and works in chunks, so
// each one runs on the wrapper as it would on the key.
type countingKey struct {
	ahe.PrivateKey
	encrypts, addPlains, rerandomizes, decrypts atomic.Int64
}

func (k *countingKey) EncryptChunk(dst []*ahe.Ciphertext, ms []uint64, sc *ahe.Scratch) error {
	k.encrypts.Add(int64(len(ms)))
	return k.PrivateKey.EncryptChunk(dst, ms, sc)
}

func (k *countingKey) FoldChunk(dst, src []*ahe.Ciphertext, ms []uint64, refresh bool, sc *ahe.Scratch) error {
	k.addPlains.Add(int64(len(ms)))
	if refresh {
		k.rerandomizes.Add(int64(len(ms)))
	}
	return k.PrivateKey.FoldChunk(dst, src, ms, refresh, sc)
}

func (k *countingKey) DecryptChunk(dst []uint64, cs []*ahe.Ciphertext, sc *ahe.Scratch) error {
	k.decrypts.Add(int64(len(cs)))
	return k.PrivateKey.DecryptChunk(dst, cs, sc)
}

// work is the count of ciphertexts encrypted, folded, refreshed and
// decrypted.
type work [4]int64

func (k *countingKey) work() work {
	return work{k.encrypts.Load(), k.addPlains.Load(), k.rerandomizes.Load(), k.decrypts.Load()}
}

// peosWork is Table III's computation column as a formula: each of the
// n + n_r reports is encrypted once (by its user, or by the holder for
// a fake) and decrypted once, and the shuffle's ciphertext vector pays
// one fold and one refresh per element per departure.
func peosWork(n, nr, departures int) work {
	total := int64(n + nr)
	return work{total, total * int64(departures), total * int64(departures), total}
}

// TestPEOSWorkCounts pins the DGK work of one PEOS round to that
// formula, in process and through the deployed roles. The ciphertext
// vector departs once per hop and once more on its exit to the
// analyzer: at r = 2 it only exits; at r = 3 the seat 2 deals it to
// itself after round 0, hands it to party 0 after round 1, and party 0
// sends it out.
func TestPEOSWorkCounts(t *testing.T) {
	blob, err := os.ReadFile("../../benchmark/testdata/dgk512.key")
	if err != nil {
		t.Fatal(err)
	}
	priv, err := ahe.UnmarshalDGKPrivateKey(blob)
	if err != nil {
		t.Fatal(err)
	}
	const (
		n  = 40
		nr = 6
		d  = 8
	)
	fo := ldp.NewGRR(d, 2)
	values := synthValues(n, d, 61)
	departures := map[int]int{2: 1, 3: 2}

	for _, r := range []int{2, 3} {
		key := &countingKey{PrivateKey: priv}
		p, err := protocol.NewPEOS(fo, r, nr, key, rng.New(62))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Run(values, rng.New(63)); err != nil {
			t.Fatal(err)
		}
		if got, want := key.work(), peosWork(n, nr, departures[r]); got != want {
			t.Fatalf("PEOS.Run r=%d: encrypted, folded, refreshed, decrypted = %v, want %v", r, got, want)
		}
	}

	// One collection at r = 3: the client encrypts the users' last
	// shares, the holder shuffler its fakes, the analyzer decrypts.
	const r = 3
	key := &countingKey{PrivateKey: priv}
	h := startCluster(t, r, nr, fo, priv, 64,
		func(cfg *cluster.AnalyzerConfig) { cfg.Priv = key },
		func(_ int, cfg *cluster.ShufflerConfig) { cfg.Pub = key })
	cl, err := cluster.NewClient(cluster.ClientConfig{Topology: h.topo, FO: fo, Pub: key, Source: rng.New(65)})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.SendValues(0, values, rng.New(66)); err != nil {
		t.Fatal(err)
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := h.analyzer.Collect(n); err != nil {
		t.Fatal(err)
	}
	if got, want := key.work(), peosWork(n, nr, departures[r]); got != want {
		t.Fatalf("cluster r=%d: encrypted, folded, refreshed, decrypted = %v, want %v", r, got, want)
	}
}

// TestPEOSWorkCountsGolden pins, as literal numbers, the DGK work of
// two seeded runs at the contract benchmark's PEOS shapes on its
// 1024-bit key fixture: one protocol.PEOS.Run at peos_inproc_r2's
// (GRR, d = 64, n = 4,000, n_r = 200, r = 2) and one cluster collection
// at peos_cluster_r3's (SOLH, d = 1,024, d' = 16, n = 3,000, n_r = 150,
// r = 3). These counts are the AHE layer's work count: a speedup
// claimed on that layer must leave them where they are, and
// internal/ahe's TestMontMulsPerOpGolden bounds what each operation
// costs in Montgomery multiplications.
func TestPEOSWorkCountsGolden(t *testing.T) {
	blob, err := os.ReadFile("../../benchmark/testdata/dgk1024.key")
	if err != nil {
		t.Fatal(err)
	}
	priv, err := ahe.UnmarshalDGKPrivateKey(blob)
	if err != nil {
		t.Fatal(err)
	}

	key := &countingKey{PrivateKey: priv}
	p, err := protocol.NewPEOS(ldp.NewGRR(64, 2), 2, 200, key, rng.New(71))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(synthValues(4000, 64, 72), rng.New(73)); err != nil {
		t.Fatal(err)
	}
	if got, want := key.work(), (work{4200, 4200, 4200, 4200}); got != want {
		t.Errorf("PEOS.Run at peos_inproc_r2's shape: encrypted, folded, refreshed, decrypted = %v, want %v", got, want)
	}

	const n, nr = 3000, 150
	fo := ldp.NewSOLH(1024, 16, 2)
	key = &countingKey{PrivateKey: priv}
	h := startCluster(t, 3, nr, fo, priv, 74,
		func(cfg *cluster.AnalyzerConfig) { cfg.Priv = key },
		func(_ int, cfg *cluster.ShufflerConfig) { cfg.Pub = key })
	cl, err := cluster.NewClient(cluster.ClientConfig{Topology: h.topo, FO: fo, Pub: key, Source: rng.New(75)})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.SendValues(0, synthValues(n, 1024, 76), rng.New(77)); err != nil {
		t.Fatal(err)
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := h.analyzer.Collect(n); err != nil {
		t.Fatal(err)
	}
	if got, want := key.work(), (work{3150, 6300, 6300, 3150}); got != want {
		t.Errorf("cluster collection at peos_cluster_r3's shape: encrypted, folded, refreshed, decrypted = %v, want %v", got, want)
	}
}
