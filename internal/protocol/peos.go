package protocol

import (
	"errors"
	"fmt"

	"shuffledp/internal/ahe"
	"shuffledp/internal/ldp"
	"shuffledp/internal/oblivious"
	"shuffledp/internal/rng"
	"shuffledp/internal/secretshare"
	"shuffledp/internal/transport"
)

// PEOS is the paper's Private Encrypted Oblivious Shuffle protocol
// (Algorithm 1). Construct it with NewPEOS and call Run.
type PEOS struct {
	// FO is the frequency oracle (GRR or SOLH — Algorithm 1's "FO").
	FO ldp.FrequencyOracle
	// R is the number of shufflers (>= 2).
	R int
	// NR is the number of fake reports injected jointly by the
	// shufflers (each contributes one share of every fake).
	NR int
	// Priv is the server's AHE key pair. Users and shufflers only
	// touch the public half.
	Priv ahe.PrivateKey
	// Source drives protocol randomness (shares, fakes). Use
	// secretshare.Crypto in production; a seeded rng.Rand in tests.
	Source secretshare.Source
	// MaliciousFakes, if non-nil, replaces shuffler j's fake-share
	// sampling — the §V-C data-poisoning adversary. It must return NR
	// share words. Honest shufflers pass through to the uniform
	// sampler.
	MaliciousFakes func(j int) []uint64
	// FakeSource, if non-nil, gives shuffler j its own randomness for
	// honest fake-share sampling instead of the run's shared Source —
	// the trust model of the role-separated deployment, where every
	// shuffler process draws only from its own generator. The
	// cluster/in-process conformance tests rely on it: seeding shuffler
	// j's node and FakeSource(j) from the same substream makes the two
	// runs' fake reports — and therefore their estimates —
	// bit-identical. MaliciousFakes, when set, still takes precedence.
	FakeSource func(j int) secretshare.Source
	// FastShuffle runs the oblivious shuffle with the ciphertext
	// refresh of every departure disabled, leaving the shufflers
	// homomorphic additions only — the paper's Table III cost model.
	// See oblivious.Config.SkipRerandomize for the security caveat.
	FastShuffle bool

	enc *ldp.WordEncoder
	mod secretshare.Modulus
}

// NewPEOS validates the configuration and prepares the word encoding.
func NewPEOS(fo ldp.FrequencyOracle, r, nr int, priv ahe.PrivateKey, src secretshare.Source) (*PEOS, error) {
	if r < 2 {
		return nil, errors.New("protocol: PEOS needs at least 2 shufflers")
	}
	if nr < 0 {
		return nil, errors.New("protocol: negative fake-report count")
	}
	if priv == nil {
		return nil, errors.New("protocol: PEOS needs the server AHE key")
	}
	if src == nil {
		return nil, errors.New("protocol: PEOS needs a randomness source")
	}
	enc, err := ldp.NewWordEncoder(fo)
	if err != nil {
		return nil, fmt.Errorf("protocol: %w", err)
	}
	if priv.PlaintextBits() != 64 {
		return nil, fmt.Errorf("protocol: PEOS requires a Z_{2^64} AHE plaintext space, got 2^%d",
			priv.PlaintextBits())
	}
	return &PEOS{
		FO:     fo,
		R:      r,
		NR:     nr,
		Priv:   priv,
		Source: src,
		enc:    enc,
		mod:    secretshare.NewModulus(64),
	}, nil
}

// Run executes Algorithm 1 over the users' true values and returns the
// server's estimates. The LDP randomization uses ldpRand so experiments
// stay reproducible; all share/fake randomness comes from p.Source.
func (p *PEOS) Run(values []int, ldpRand *rng.Rand) (*Result, error) {
	n := len(values)
	if n == 0 {
		return nil, errors.New("protocol: no users")
	}
	meter := &transport.Meter{}
	pub := ahe.PublicKey(p.Priv)
	total := n + p.NR

	// Pre-generate encryption randomizers off the measured path: every
	// user share, fake share, and rerandomization below draws one h^r,
	// and the pool keeps refilling while the protocol computes. It stops
	// when the shuffle returns — reveal and estimate draw none, and a
	// refill then would only take a core from the decryptions; the
	// deferred stop (idempotent) covers the error returns.
	// Pool randomness is crypto/rand, never p.Source, so estimates stay
	// bit-identical with or without it.
	stopPool := pub.StartRandomizerPool()
	defer stopPool()

	// --- Users (Algorithm 1, "User i"). ---
	// plainShares[j][i] is user i's j-th share; encShares[i] is the
	// AHE-encrypted r-th share, lastShares[i] its plaintext. The shares
	// are drawn user by user, then the last ones encrypted as one chunk.
	plainShares := make([][]uint64, p.R-1)
	for j := range plainShares {
		plainShares[j] = make([]uint64, total)
	}
	encShares := make([]*ahe.Ciphertext, total)
	lastShares := make([]uint64, n)
	sc := pub.NewScratch()
	var userErr error
	meter.Track(PartyUsers, func() {
		for i, v := range values {
			rep := p.FO.Randomize(v, ldpRand)
			word := p.enc.Encode(rep)
			shares := secretshare.Split(word, p.R, p.mod, p.Source)
			for j := 0; j < p.R-1; j++ {
				plainShares[j][i] = shares[j]
			}
			lastShares[i] = shares[p.R-1]
		}
		userErr = pub.EncryptChunk(encShares[:n], lastShares, sc)
	})
	if userErr != nil {
		return nil, userErr
	}
	// Each user sends one 8-byte share to each of r-1 shufflers and
	// one ciphertext to shuffler r.
	for j := 0; j < p.R-1; j++ {
		meter.Send(PartyUsers, ShufflerName(j), 8*n)
	}
	meter.Send(PartyUsers, ShufflerName(p.R-1), pub.CiphertextBytes()*n)

	// --- Shufflers: fake-report shares (Algorithm 1, "Shuffler j"). ---
	for j := 0; j < p.R-1; j++ {
		fakes := p.fakeShares(j)
		sname := ShufflerName(j)
		meter.Track(sname, func() {
			copy(plainShares[j][n:], fakes)
		})
	}
	{
		j := p.R - 1
		fakes := p.fakeShares(j)
		sname := ShufflerName(j)
		var encErr error
		meter.Track(sname, func() {
			encErr = pub.EncryptChunk(encShares[n:], fakes, sc)
		})
		if encErr != nil {
			return nil, encErr
		}
	}

	// --- Encrypted oblivious shuffle (§VI-A3). ---
	st := &oblivious.State{
		Plain:     append(plainShares, nil),
		Enc:       encShares,
		EncHolder: p.R - 1,
	}
	err := oblivious.Run(st, oblivious.Config{
		Mod:             p.mod,
		Source:          p.Source,
		Pub:             pub,
		Meter:           meter,
		SkipRerandomize: p.FastShuffle,
	})
	stopPool()
	if err != nil {
		return nil, err
	}

	// --- Server: decrypt, combine, estimate. ---
	for j := 0; j < p.R; j++ {
		if j == st.EncHolder {
			meter.Send(ShufflerName(j), PartyServer, pub.CiphertextBytes()*total)
		} else {
			meter.Send(ShufflerName(j), PartyServer, 8*total)
		}
	}
	var words []uint64
	var srvErr error
	meter.Track(PartyServer, func() {
		// Decryptions fan out across cores, as in the paper's server
		// (§VII-D "the decryptions is done in parallel").
		words, srvErr = oblivious.RevealParallel(st, p.mod, p.Priv, 0)
	})
	if srvErr != nil {
		return nil, srvErr
	}
	reports := make([]ldp.Report, len(words))
	var est []float64
	meter.Track(PartyServer, func() {
		for i, w := range words {
			reports[i] = p.enc.Decode(w)
		}
		est = Estimate(p.FO, reports, n, p.NR)
	})
	return &Result{Estimates: est, Reports: reports, Meter: meter}, nil
}

// fakeShares returns shuffler j's NR fake-report shares: uniform words
// for honest shufflers, attacker-chosen for a malicious one. A fake
// report's value is the sum of all shufflers' shares, so it stays
// uniform as long as any single shuffler is honest (§VI-A2) —
// a property the attack tests exercise.
func (p *PEOS) fakeShares(j int) []uint64 {
	if p.MaliciousFakes != nil {
		if shares := p.MaliciousFakes(j); shares != nil {
			if len(shares) != p.NR {
				panic("protocol: malicious fake-share vector has wrong length")
			}
			return shares
		}
	}
	src := p.Source
	if p.FakeSource != nil {
		src = p.FakeSource(j)
	}
	out := make([]uint64, p.NR)
	for k := range out {
		out[k] = p.mod.Random(src)
	}
	return out
}
