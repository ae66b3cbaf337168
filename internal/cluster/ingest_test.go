package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"maps"
	"math/big"
	"strings"
	"testing"

	"shuffledp/internal/ahe"
	"shuffledp/internal/rng"
)

// keyModulus reads n out of priv's marshaled form: a 4-byte magic, the
// version and l bytes and a u32, then n as a u32 length and big-endian
// bytes.
func keyModulus(priv *ahe.DGKPrivateKey) *big.Int {
	blob := ahe.MarshalDGKPrivateKey(priv)
	size := binary.BigEndian.Uint32(blob[10:])
	return new(big.Int).SetBytes(blob[14 : 14+size])
}

// keyFactor reads the prime p out of priv's marshaled form, whose last
// two fields are p and vp, each a u32 length and big-endian bytes. A
// multiple of p is the non-unit "ciphertext" a hostile client would
// send; nothing outside package ahe can build one otherwise.
func keyFactor(priv *ahe.DGKPrivateKey) *big.Int {
	blob := ahe.MarshalDGKPrivateKey(priv)
	n := keyModulus(priv)
	for i := 0; i+4 <= len(blob); i++ {
		end := i + 4 + int(binary.BigEndian.Uint32(blob[i:]))
		if end+4 > len(blob) || end+4+int(binary.BigEndian.Uint32(blob[end:])) != len(blob) {
			continue
		}
		p := new(big.Int).SetBytes(blob[i+4 : end])
		if p.Cmp(big.NewInt(1)) > 0 && p.Cmp(n) < 0 && new(big.Int).Mod(n, p).Sign() == 0 {
			return p
		}
	}
	panic("cluster test: no factor of n in the marshaled key")
}

// badCiphertexts are CiphertextBytes-long elements Deserialize refuses,
// each for its own reason.
func badCiphertexts(priv *ahe.DGKPrivateKey) map[string][]byte {
	size := priv.CiphertextBytes()
	return map[string][]byte{
		"zero":     make([]byte, size),
		"≥ n":      keyModulus(priv).FillBytes(make([]byte, size)),
		"non-unit": keyFactor(priv).FillBytes(make([]byte, size)),
	}
}

// honestCiphertexts serializes k fresh encryptions back to back.
func honestCiphertexts(t *testing.T, pub ahe.PublicKey, k int) []byte {
	t.Helper()
	var out []byte
	for i := 0; i < k; i++ {
		c, err := pub.Encrypt(uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, pub.Serialize(c)...)
	}
	return out
}

// sharesPayload is a shares / encShares frame payload.
func sharesPayload(col, first uint32, nonce uint64, body []byte) []byte {
	var buf bytes.Buffer
	if err := writeSharesFrame(&buf, tagShares, sharesFrame{collection: col, first: first, nonce: nonce, body: body}); err != nil {
		panic(err)
	}
	return buf.Bytes()[8:]
}

// TestIngestTakesFrameWholeOrNothing drives the encrypted holder's
// ingest with one hostile frame per row, each refused for its own
// reason, and checks that the node's buffers — every index, nonce and
// the cap count — are exactly what they were before the frame.
func TestIngestTakesFrameWholeOrNothing(t *testing.T) {
	priv, err := ahe.GenerateDGK(512, 64)
	if err != nil {
		t.Fatal(err)
	}
	pub := ahe.PublicKey(priv)
	size := pub.CiphertextBytes()
	const (
		col   = 7
		limit = 12
	)
	s, err := NewShuffler(ShufflerConfig{
		Index:       1,
		Topology:    Topology{Shufflers: []string{"127.0.0.1:0", "127.0.0.1:0"}, Analyzers: []string{"127.0.0.1:1"}},
		Pub:         pub,
		Source:      rng.New(1),
		maxBuffered: limit,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	state := func() (map[uint32]uint64, int) {
		s.mu.Lock()
		defer s.mu.Unlock()
		var nonces map[uint32]uint64
		if c := s.cols[col]; c != nil {
			nonces = maps.Clone(c.nonce)
		}
		return nonces, s.buffered
	}

	five := honestCiphertexts(t, pub, 5)
	plant := sharesPayload(col, 0, 100, five) // users 0..4, nonces 100..104
	if err := s.ingest(tagEncShares, plant); err != nil {
		t.Fatal(err)
	}
	withThird := func(bad []byte) []byte {
		body := bytes.Clone(five)
		copy(body[2*size:], bad)
		return sharesPayload(col, 10, 200, body)
	}
	type row struct {
		name string
		tag  uint32
		load []byte
		want string
		full bool // errBufferFull, not errBadFrame
	}
	rows := []row{
		{name: "ragged tail", tag: tagEncShares, load: sharesPayload(col, 10, 200, append(bytes.Clone(five), 1, 2, 3)), want: "not 1..256 elements"},
		{name: "taken index, other nonce", tag: tagEncShares, load: sharesPayload(col, 3, 999, five), want: "conflicting share for collection 7 index 3"},
		{name: "wrapping range", tag: tagEncShares, load: sharesPayload(col, 1<<32-3, 300, five), want: "wrap past index 2^32-1"},
		{name: "crosses the buffer cap", tag: tagEncShares, load: sharesPayload(col, 20, 400, honestCiphertexts(t, pub, limit-5+1)), full: true},
		{name: "plain shares at the encrypted holder", tag: tagShares, load: sharesPayload(col, 10, 200, make([]byte, 40)), want: "does not match shuffler role 1"},
		{name: "retired tag 4", tag: tagRetiredReport, load: sharesPayload(col, 10, 200, make([]byte, 8)), want: "retired per-report tag 4"},
		{name: "retired tag 5", tag: tagRetiredEncReport, load: sharesPayload(col, 10, 200, five[:size]), want: "retired per-report tag 5"},
	}
	for name, bad := range badCiphertexts(priv) {
		rows = append(rows, row{name: "third element " + name, tag: tagEncShares, load: withThird(bad), want: "users 10..14: ahe: ciphertext 2"})
	}
	for _, r := range rows {
		before, count := state()
		err := s.ingest(r.tag, r.load)
		switch {
		case r.full && !errors.Is(err, errBufferFull):
			t.Errorf("%s: %v, want the buffer cap", r.name, err)
		case !r.full && (err == nil || !strings.Contains(err.Error(), r.want)):
			t.Errorf("%s: %v, want %q", r.name, err, r.want)
		}
		if after, n := state(); !maps.Equal(after, before) || n != count {
			t.Errorf("%s: buffered %d shares %v, had %d %v", r.name, n, after, count, before)
		}
	}

	// The refused frame left the cap unconsumed: one that fills it exactly
	// fits, and the plant's replay is free.
	if err := s.ingest(tagEncShares, sharesPayload(col, 20, 400, honestCiphertexts(t, pub, limit-5))); err != nil {
		t.Fatalf("a frame filling the cap exactly: %v", err)
	}
	if err := s.ingest(tagEncShares, plant); err != nil {
		t.Fatalf("the plant's replay: %v", err)
	}
	if _, n := state(); n != limit {
		t.Fatalf("buffered %d, want the cap %d", n, limit)
	}
}
