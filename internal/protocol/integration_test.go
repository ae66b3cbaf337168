package protocol

import (
	"math"
	"testing"

	"shuffledp/internal/ecies"
	"shuffledp/internal/ldp"
	"shuffledp/internal/rng"
)

// onionForHops wraps a report word for delivery starting at shuffler
// `fromHop` (0 = the full user onion), as an attacker inside the chain
// can: it knows exactly these public keys.
func (s *SS) onionForHops(fromHop int, word uint64) ([]byte, error) {
	return ecies.OnionEncrypt(s.hopKeys(fromHop), s.encodePayload(word))
}

// A malicious SS shuffler substitutes every report with its target;
// the server's spot-check (§VI-A1) must notice the planted dummies
// vanished.
func TestSSMaliciousSubstitutionCaughtBySpotCheck(t *testing.T) {
	const n, d, r = 500, 16, 3
	fo := ldp.NewGRR(d, 6)
	s, err := NewSS(fo, r, 0)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := ldp.NewWordEncoder(fo)
	if err != nil {
		t.Fatal(err)
	}
	// The server's dummy accounts: it controls their randomness, so it
	// knows their exact reports. Mix them among the users' values by
	// running them through the same pipeline (here: dummies report
	// value d-1 deterministically via a high-eps oracle is not enough —
	// instead the server records the exact reports it submits).
	sc, err := NewSpotCheck(fo)
	if err != nil {
		t.Fatal(err)
	}
	scRand := rng.New(100)
	dummyReports := make([]ldp.Report, 25)
	for i := range dummyReports {
		dummyReports[i] = sc.Plant(fo.Randomize(i%d, scRand))
	}

	// Malicious shuffler 1 rewrites the whole batch to boost value 0.
	target := enc.Encode(ldp.Report{Value: 0})
	s.MaliciousShuffler = func(j int, batch [][]byte) [][]byte {
		if j != 1 {
			return batch
		}
		// Substitute: re-encrypt target-value payloads for the
		// remaining hops. The attacker can do this because it knows
		// the downstream public keys.
		out := make([][]byte, len(batch))
		for i := range batch {
			onion, err := s.onionForHops(j+1, target)
			if err != nil {
				t.Errorf("attacker onion: %v", err)
				return batch
			}
			out[i] = onion
		}
		return out
	}

	values := make([]int, n)
	for i := range values {
		values[i] = i % d
	}
	res, err := s.runWithExtraReports(values, dummyReports, rng.New(101))
	if err != nil {
		t.Fatal(err)
	}
	missing := sc.Verify(res.Reports)
	if missing == 0 {
		t.Fatal("spot check failed to detect wholesale substitution")
	}
	// The attack also visibly skews value 0 (everything became 0).
	if res.Estimates[0] < 0.5 {
		t.Fatalf("substitution attack had no effect: est[0] = %v", res.Estimates[0])
	}
}

// An honest run must pass the spot check.
func TestSSHonestRunPassesSpotCheck(t *testing.T) {
	const n, d, r = 500, 16, 2
	fo := ldp.NewGRR(d, 6)
	s, err := NewSS(fo, r, 50)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := NewSpotCheck(fo)
	if err != nil {
		t.Fatal(err)
	}
	scRand := rng.New(102)
	dummyReports := make([]ldp.Report, 25)
	for i := range dummyReports {
		dummyReports[i] = sc.Plant(fo.Randomize(i%d, scRand))
	}
	values := make([]int, n)
	for i := range values {
		values[i] = i % d
	}
	res, err := s.runWithExtraReports(values, dummyReports, rng.New(103))
	if err != nil {
		t.Fatal(err)
	}
	if missing := sc.Verify(res.Reports); missing != 0 {
		t.Fatalf("honest run flagged: %d dummies missing", missing)
	}
}

// A malicious SS shuffler can skew its fake reports undetectably by
// the spot check (the §VI-A1 weakness that motivates PEOS): the
// dummies survive, yet the estimate is biased.
func TestSSSkewedFakesPassSpotCheckButBias(t *testing.T) {
	const n, d, r, nr = 2000, 8, 2, 600
	fo := ldp.NewGRR(d, 6)
	s, err := NewSS(fo, r, nr)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := ldp.NewWordEncoder(fo)
	if err != nil {
		t.Fatal(err)
	}
	target := enc.Encode(ldp.Report{Value: 3})
	s.MaliciousFakeWords = func(j, count int) []uint64 {
		if j != 0 {
			return nil // other shufflers honest
		}
		words := make([]uint64, count)
		for k := range words {
			words[k] = target
		}
		return words
	}
	sc, err := NewSpotCheck(fo)
	if err != nil {
		t.Fatal(err)
	}
	scRand := rng.New(104)
	dummyReports := make([]ldp.Report, 20)
	for i := range dummyReports {
		dummyReports[i] = sc.Plant(fo.Randomize(i%d, scRand))
	}
	values := make([]int, n) // all users hold value 0
	res, err := s.runWithExtraReports(values, dummyReports, rng.New(105))
	if err != nil {
		t.Fatal(err)
	}
	if missing := sc.Verify(res.Reports); missing != 0 {
		t.Fatalf("skewed fakes should NOT trip the spot check; %d missing", missing)
	}
	// Bias: value 3 has true frequency 0 but gets the skewed fake mass
	// (~nr/r fakes on one value among n users).
	if res.Estimates[3] < 0.05 {
		t.Fatalf("skewed fakes had no visible effect: est[3] = %v", res.Estimates[3])
	}
}

// The same skewed-fakes adversary against the real PEOS protocol: one
// malicious shuffler fixes its fake shares, the others stay honest —
// the estimate must remain unbiased (the §VI-A2 masking property,
// here verified through the full cryptographic pipeline).
func TestPEOSMaliciousFakesMaskedEndToEnd(t *testing.T) {
	key := dgk64(t)
	const n, d, r, nr = 400, 8, 3, 200
	fo := ldp.NewGRR(d, 6)
	p, err := NewPEOS(fo, r, nr, key, rng.New(106))
	if err != nil {
		t.Fatal(err)
	}
	p.MaliciousFakes = func(j int) []uint64 {
		if j != 0 {
			return nil // honest
		}
		words := make([]uint64, nr)
		for k := range words {
			words[k] = 3 // try to push everything onto value 3
		}
		return words
	}
	values := make([]int, n) // all users hold value 0
	res, err := p.Run(values, rng.New(107))
	if err != nil {
		t.Fatal(err)
	}
	// Value 3's true frequency is 0; with honest masking its estimate
	// stays within noise (no nr/n ~ 0.5 spike).
	if math.Abs(res.Estimates[3]) > 0.15 {
		t.Fatalf("PEOS masking failed: est[3] = %v", res.Estimates[3])
	}
	// Value 0 stays dominant.
	if res.Estimates[0] < 0.7 {
		t.Fatalf("est[0] = %v, want ~1", res.Estimates[0])
	}
}
