package ldp

import (
	"fmt"
	"math"
)

// Report packing for the PEOS protocol (§VI-A2): "for both GRR and SOLH,
// the domain of the report can be mapped to an ordinal group
// {0, 1, ..., x}, where each index represents one different LDP report.
// Thus the LDP reports can be treated as numbers and shared with
// additive secret sharing."
//
// We pack a GRR report as the bare value, and a SOLH/OLH report as
// seed*outputSize + value, exactly the ordinal-group mapping the paper
// describes. Both fit a 64-bit word: the seed is 32 bits and a hashed
// outputSize is at most 2^31 — newLocalHash rejects a larger d' — so
// GroupOrder = 2^32 * outputSize <= 2^63. That
// matches the paper's fixed 64-bit report size in Table III. The fixed
// 64-bit word is PEOS's share ring, Z_{2^64}; the streaming service has
// no shares and puts a report on the wire in only the bytes GroupOrder
// needs (service.Codec).

// WordEncoder maps reports of a given oracle to/from 64-bit words.
type WordEncoder struct {
	outputSize uint64 // size of the Value component's domain
	hashed     bool   // whether Seed participates
}

// NewWordEncoder returns the encoder for the given oracle. It is the one
// answer to "can this oracle report": the service codec, PEOS, SS and
// the cluster roles all ask it and nothing else. GRR and local hashing
// (OLH/SOLH) — the two oracles §VI-A2 puts on a wire — have word
// encodings, and each has a fake-corrected estimator (Support.U > 0,
// Equation 6). Any other FrequencyOracle gets an error that names it.
func NewWordEncoder(fo FrequencyOracle) (*WordEncoder, error) {
	switch o := fo.(type) {
	case *GRR:
		return &WordEncoder{outputSize: uint64(o.Domain())}, nil
	case *LocalHash:
		return &WordEncoder{outputSize: uint64(o.DPrime()), hashed: true}, nil
	default:
		return nil, fmt.Errorf("ldp: oracle %s has no word encoding", fo.Name())
	}
}

// GroupOrder returns the size x+1 of the ordinal group the reports live
// in. All words returned by Encode are < GroupOrder.
func (e *WordEncoder) GroupOrder() uint64 {
	if e.hashed {
		return (1 << 32) * e.outputSize
	}
	return e.outputSize
}

// Valid reports whether rep's Value lies in the oracle's output range,
// the precondition of Encode.
func (e *WordEncoder) Valid(rep Report) bool {
	return rep.Value >= 0 && uint64(rep.Value) < e.outputSize
}

// Encode packs a report into a word in [0, GroupOrder()). It panics on
// a report that is not Valid.
func (e *WordEncoder) Encode(rep Report) uint64 {
	if !e.Valid(rep) {
		panic("ldp: report value out of range for encoder")
	}
	if !e.hashed {
		return uint64(rep.Value)
	}
	return uint64(rep.Seed)*e.outputSize + uint64(rep.Value)
}

// Decode unpacks a word produced by Encode. Words >= GroupOrder()
// (possible only through protocol corruption) are reduced modulo the
// group order, mirroring the wrap-around semantics of Z_{2^l} shares.
func (e *WordEncoder) Decode(word uint64) Report {
	if g := e.GroupOrder(); word >= g {
		word %= g
	}
	if !e.hashed {
		return Report{Value: int(word)}
	}
	seed := word / e.outputSize
	return Report{Seed: uint32(seed), Value: int(word - seed*e.outputSize)}
}

// AddWords folds words, each below GroupOrder(), into agg as if every
// one were Decoded and Added, with no Report in between when agg is the
// oracle's own count accumulator: a local-hash word splits into the
// (seed, y) lanes the accumulator stages for CountSupport, and a GRR
// word is its count's index. Any other aggregator takes Decode + Add.
// It panics on a word outside the group, as Add panics on a report
// outside the oracle's range.
func (e *WordEncoder) AddWords(agg Aggregator, words []uint64) {
	a, ok := agg.(*accumulator)
	switch {
	case ok && e.hashed && a.kind == kindLocalHash && uint64(a.aux) == e.outputSize:
		for _, w := range words {
			seed := w / e.outputSize
			if seed > math.MaxUint32 {
				panic("ldp: word outside the report group")
			}
			a.stage(seed, w-seed*e.outputSize)
		}
		a.n += len(words)
	case ok && !e.hashed && a.kind == kindGRR && uint64(a.d) == e.outputSize:
		counts := a.tally()
		for _, w := range words {
			counts[w]++
		}
		a.n += len(words)
	default:
		for _, w := range words {
			if w >= e.GroupOrder() {
				panic("ldp: word outside the report group")
			}
			agg.Add(e.Decode(w))
		}
	}
}

// UniformWord samples a uniformly random word, i.e. a uniform fake
// report in the oracle's output space — what each PEOS shuffler draws
// (Algorithm 1, "Sample Y' uniformly from output space of FO").
func (e *WordEncoder) UniformWord(random func(n uint64) uint64) uint64 {
	return random(e.GroupOrder())
}
