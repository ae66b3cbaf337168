package protocol

import (
	"encoding/binary"
	"errors"
	"fmt"

	"shuffledp/internal/ecies"
	"shuffledp/internal/ldp"
	"shuffledp/internal/rng"
	"shuffledp/internal/transport"
)

// ssPayloadSize pads each report word to the paper's 32-byte message
// body (§VII-D: "each message is 32 + 96(r+1) bytes").
const ssPayloadSize = 32

// SS is the sequential-shuffle baseline (§VI-A1): shufflers are chained,
// each peels one onion layer, injects NR/r uniform fake reports, and
// shuffles before forwarding. Vulnerable to report substitution and
// skewed fake reports by a malicious shuffler — the attack hooks expose
// exactly those capabilities for the §V analysis.
type SS struct {
	// FO is the frequency oracle (GRR or SOLH).
	FO ldp.FrequencyOracle
	// R is the number of shufflers.
	R int
	// NR is the total fake-report budget, split evenly (NR/R each).
	NR int
	// MaliciousShuffler, if non-nil, lets shuffler j transform the
	// report batch it is about to forward (after peeling, before
	// shuffling): the §V-C poisoning adversary. Return the possibly
	// modified batch.
	MaliciousShuffler func(j int, batch [][]byte) [][]byte
	// MaliciousFakeWords, if non-nil, supplies shuffler j's fake
	// report words instead of uniform draws (skewed-fakes attack).
	MaliciousFakeWords func(j int, count int) []uint64

	enc          *ldp.WordEncoder
	shufflerKeys []*ecies.PrivateKey
	serverKey    *ecies.PrivateKey
}

// NewSS generates the hop keys and prepares the protocol.
func NewSS(fo ldp.FrequencyOracle, r, nr int) (*SS, error) {
	if r < 1 {
		return nil, errors.New("protocol: SS needs at least 1 shuffler")
	}
	if nr < 0 {
		return nil, errors.New("protocol: negative fake-report count")
	}
	enc, err := ldp.NewWordEncoder(fo)
	if err != nil {
		return nil, fmt.Errorf("protocol: %w", err)
	}
	if sup, ok := ldp.SupportOf(fo); !ok || sup.U == 0 {
		return nil, fmt.Errorf("protocol: oracle %s has no fake-corrected estimator (Equation 6)", fo.Name())
	}
	s := &SS{FO: fo, R: r, NR: nr, enc: enc}
	s.shufflerKeys = make([]*ecies.PrivateKey, r)
	for j := range s.shufflerKeys {
		if s.shufflerKeys[j], err = ecies.GenerateKey(); err != nil {
			return nil, err
		}
	}
	if s.serverKey, err = ecies.GenerateKey(); err != nil {
		return nil, err
	}
	return s, nil
}

// hopKeys returns the public keys for layers j..r-1 plus the server
// (the onion a report entering shuffler j must carry).
func (s *SS) hopKeys(j int) []*ecies.PublicKey {
	keys := make([]*ecies.PublicKey, 0, s.R-j+1)
	for k := j; k < s.R; k++ {
		keys = append(keys, s.shufflerKeys[k].Public())
	}
	return append(keys, s.serverKey.Public())
}

func (s *SS) encodePayload(word uint64) []byte {
	payload := make([]byte, ssPayloadSize)
	binary.LittleEndian.PutUint64(payload, word)
	return payload
}

// Run executes the protocol and returns the server's estimates.
func (s *SS) Run(values []int, ldpRand *rng.Rand) (*Result, error) {
	return s.runWithExtraReports(values, nil, ldpRand)
}

// runWithExtraReports runs the protocol with additional pre-randomized
// reports mixed into the user batch — the server's dummy accounts for
// spot-checking (§VI-A1). The extras count as users in the estimation
// (they are indistinguishable from real accounts by design).
func (s *SS) runWithExtraReports(values []int, extra []ldp.Report, ldpRand *rng.Rand) (*Result, error) {
	n := len(values) + len(extra)
	if n == 0 {
		return nil, errors.New("protocol: no users")
	}
	meter := &transport.Meter{}

	// --- Users: randomize and onion-encrypt for all hops. ---
	batch := make([][]byte, 0, n)
	allHops := s.hopKeys(0)
	var userErr error
	meter.Track(PartyUsers, func() {
		for _, v := range values {
			rep := s.FO.Randomize(v, ldpRand)
			onion, err := ecies.OnionEncrypt(allHops, s.encodePayload(s.enc.Encode(rep)))
			if err != nil {
				userErr = err
				return
			}
			batch = append(batch, onion)
		}
		for _, rep := range extra {
			onion, err := ecies.OnionEncrypt(allHops, s.encodePayload(s.enc.Encode(rep)))
			if err != nil {
				userErr = err
				return
			}
			batch = append(batch, onion)
		}
	})
	if userErr != nil {
		return nil, userErr
	}
	meter.Send(PartyUsers, ShufflerName(0), batchBytes(batch))

	// --- Shufflers: peel, inject fakes, shuffle, forward. ---
	perShuffler := 0
	if s.R > 0 {
		perShuffler = s.NR / s.R
	}
	// The shufflers' fakes and permutations derive from the caller's
	// stream, drawn after the users' loop so a seed's user reports are
	// what they would be without shufflers: runs at different seeds
	// share no shuffler randomness.
	shufRand := rng.New(ldpRand.Uint64())
	totalFakes := 0
	for j := 0; j < s.R; j++ {
		sname := ShufflerName(j)
		var hopErr error
		meter.Track(sname, func() {
			// Peel one layer from every report.
			for i, onion := range batch {
				pt, err := ecies.Decrypt(s.shufflerKeys[j], onion)
				if err != nil {
					hopErr = fmt.Errorf("shuffler %d: %w", j, err)
					return
				}
				batch[i] = pt
			}
			// Attack hook: a malicious shuffler may rewrite reports.
			if s.MaliciousShuffler != nil {
				batch = s.MaliciousShuffler(j, batch)
			}
			// Inject this hop's fake reports, wrapped for the
			// remaining hops.
			words := s.fakeWords(j, perShuffler, shufRand)
			remaining := s.hopKeys(j + 1)
			for _, w := range words {
				onion, err := ecies.OnionEncrypt(remaining, s.encodePayload(w))
				if err != nil {
					hopErr = err
					return
				}
				batch = append(batch, onion)
				totalFakes++
			}
			shufRand.Shuffle(len(batch), func(a, b int) {
				batch[a], batch[b] = batch[b], batch[a]
			})
		})
		if hopErr != nil {
			return nil, hopErr
		}
		next := PartyServer
		if j+1 < s.R {
			next = ShufflerName(j + 1)
		}
		meter.Send(sname, next, batchBytes(batch))
	}

	// --- Server: final peel, decode, estimate. ---
	var est []float64
	reports := make([]ldp.Report, len(batch))
	var srvErr error
	meter.Track(PartyServer, func() {
		for i, ct := range batch {
			pt, err := ecies.Decrypt(s.serverKey, ct)
			if err != nil {
				srvErr = fmt.Errorf("server decrypt: %w", err)
				return
			}
			if len(pt) != ssPayloadSize {
				srvErr = errors.New("protocol: malformed SS payload")
				return
			}
			reports[i] = s.enc.Decode(binary.LittleEndian.Uint64(pt))
		}
		est = Estimate(s.FO, reports, n, totalFakes)
	})
	if srvErr != nil {
		return nil, srvErr
	}
	return &Result{Estimates: est, Reports: reports, Meter: meter}, nil
}

func (s *SS) fakeWords(j, count int, r *rng.Rand) []uint64 {
	if s.MaliciousFakeWords != nil {
		if words := s.MaliciousFakeWords(j, count); words != nil {
			return words
		}
	}
	words := make([]uint64, count)
	for k := range words {
		words[k] = s.enc.UniformWord(r.Uint64n)
	}
	return words
}

func batchBytes(batch [][]byte) int {
	total := 0
	for _, b := range batch {
		total += len(b)
	}
	return total
}
