package treehist

import (
	"encoding/binary"
	"errors"
	"math"

	"shuffledp/internal/hash"
	"shuffledp/internal/ldp"
	"shuffledp/internal/rng"
)

// Non-interactive TreeHist (§VII-C): "another advantage of SOLH we
// observe here is that SOLH enables non-interactive execution of
// TreeHist ... the users can encode all their prefixes and report
// together. The server, after obtaining some frequent prefix, can
// directly test the potential strings in the next round."
//
// Each user submits, up front, one local-hash report per tree level:
// the hash of their length-(l*RoundBits) prefix under a fresh seed,
// perturbed by GRR over [0, d'). Because local hashing lets the server
// evaluate H_seed on ANY candidate after the fact, the BFS runs
// entirely server-side with no further user interaction — impossible
// for the unary-encoding methods, whose reports fix the candidate set
// at encoding time (the paper's closing observation in §VII-C).

// NIConfig parameterizes the non-interactive protocol.
type NIConfig struct {
	// Bits, RoundBits, K as in Config.
	Bits      int
	RoundBits int
	K         int
	// DPrime is the hashed-domain size of each level's report.
	DPrime int
	// EpsLocalPerLevel is the LDP budget each level's report spends;
	// a user's total local disclosure is Levels() * EpsLocalPerLevel
	// by basic composition (each level reports a correlated prefix).
	EpsLocalPerLevel float64
}

// Levels returns the number of per-user reports.
func (cfg NIConfig) Levels() int { return cfg.Bits / cfg.RoundBits }

func (cfg NIConfig) validate() error {
	switch {
	case cfg.Bits < 8 || cfg.Bits > 64:
		return errors.New("treehist: Bits must be in [8, 64]")
	case cfg.RoundBits < 1 || cfg.RoundBits > 16:
		return errors.New("treehist: RoundBits must be in [1, 16]")
	case cfg.Bits%cfg.RoundBits != 0:
		return errors.New("treehist: RoundBits must divide Bits")
	case cfg.K < 1:
		return errors.New("treehist: K must be >= 1")
	case cfg.DPrime < 2:
		return errors.New("treehist: DPrime must be >= 2")
	case cfg.EpsLocalPerLevel <= 0:
		return errors.New("treehist: EpsLocalPerLevel must be > 0")
	}
	return nil
}

// NIReport is one user's complete non-interactive submission: one
// (seed, perturbed hash) pair per tree level.
type NIReport struct {
	Seeds  []uint32
	Values []uint8
}

// prefixKey serializes (level, prefix) for hashing.
func prefixKey(level int, prefix uint64) []byte {
	var buf [9]byte
	buf[0] = byte(level)
	binary.LittleEndian.PutUint64(buf[1:], prefix)
	return buf[:]
}

// EncodeNI produces one user's non-interactive report for value v.
func EncodeNI(v uint64, cfg NIConfig, r *rng.Rand) NIReport {
	levels := cfg.Levels()
	fam := hash.NewFamily(cfg.DPrime)
	p := math.Exp(cfg.EpsLocalPerLevel) /
		(math.Exp(cfg.EpsLocalPerLevel) + float64(cfg.DPrime) - 1)
	rep := NIReport{
		Seeds:  make([]uint32, levels),
		Values: make([]uint8, levels),
	}
	for l := 0; l < levels; l++ {
		prefixBits := (l + 1) * cfg.RoundBits
		prefix := v >> uint(cfg.Bits-prefixBits)
		seed := uint32(r.Uint64())
		hv := fam.HashBytes(uint64(seed), prefixKey(l, prefix))
		y := hv
		if !r.Bernoulli(p) {
			y = r.Intn(cfg.DPrime - 1)
			if y >= hv {
				y++
			}
		}
		rep.Seeds[l] = seed
		rep.Values[l] = uint8(y)
	}
	return rep
}

// CollectNI encodes every user's value (the client side of the
// protocol, run before the server knows anything).
func CollectNI(values []uint64, cfg NIConfig, r *rng.Rand) ([]NIReport, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.DPrime > 256 {
		return nil, errors.New("treehist: DPrime must fit uint8 reports")
	}
	reports := make([]NIReport, len(values))
	for i, v := range values {
		reports[i] = EncodeNI(v, cfg, r)
	}
	return reports, nil
}

// RunNI executes the server-side BFS over pre-collected reports —
// no user interaction. At each level it estimates the frequency of
// every candidate prefix from that level's reports (Equation (3)) and
// keeps the top K.
func RunNI(reports []NIReport, cfg NIConfig) ([]uint64, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(reports) == 0 {
		return nil, errors.New("treehist: no reports")
	}
	levels := cfg.Levels()
	for i, rep := range reports {
		if len(rep.Seeds) != levels || len(rep.Values) != levels {
			return nil, errors.New("treehist: malformed report")
		}
		_ = i
	}
	fam := hash.NewFamily(cfg.DPrime)
	sup := ldp.Support{
		P: math.Exp(cfg.EpsLocalPerLevel) /
			(math.Exp(cfg.EpsLocalPerLevel) + float64(cfg.DPrime) - 1),
		Q: 1 / float64(cfg.DPrime),
	}
	n := len(reports)
	branch := 1 << uint(cfg.RoundBits)

	frontier := []uint64{0}
	for l := 0; l < levels; l++ {
		candidates := make([]uint64, 0, len(frontier)*branch)
		for _, f := range frontier {
			base := f << uint(cfg.RoundBits)
			for b := 0; b < branch; b++ {
				candidates = append(candidates, base|uint64(b))
			}
		}
		// Support counts of every candidate against level-l reports.
		counts := make([]int, len(candidates))
		for _, rep := range reports {
			seed := uint64(rep.Seeds[l])
			y := int(rep.Values[l])
			for ci, cand := range candidates {
				if fam.HashBytes(seed, prefixKey(l, cand)) == y {
					counts[ci]++
				}
			}
		}
		est := sup.Calibrate(counts, n, 0)
		top := ldp.TopK(est, cfg.K)
		next := make([]uint64, 0, len(top))
		for _, idx := range top {
			next = append(next, candidates[idx])
		}
		frontier = next
	}
	return frontier, nil
}
