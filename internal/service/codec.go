package service

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"shuffledp/internal/ldp"
)

// Codec maps ldp.Reports to and from wire payloads. It writes the
// ordinal-group word of ldp.WordEncoder (GRR, OLH/SOLH, Hadamard) in
// as few little-endian bytes as the group needs, max(1,
// ⌈bitlen(GroupOrder−1)/8⌉): 5 for every hashed oracle in the repo, 1
// for GRR with d ≤ 256. It adds a packed-bitmap encoding for the unary
// oracles (RAP, RAP_R, OUE) and a byte-per-location count encoding for
// AUE, so every frequency oracle in the repo can report through the
// streaming service.
//
// Unmarshal is strict: a payload either decodes to exactly one valid
// report of the oracle — one that Aggregator.Add accepts — or errors,
// and AppendMarshal(nil, Unmarshal(data)) reproduces data byte for byte. The
// canonical round-trip is what FuzzCodec locks in; a decrypted report
// that parses ambiguously (wrapped words, set padding bits,
// out-of-range Hadamard rows) flags the run instead of skewing the
// histogram or panicking a worker.
type Codec struct {
	word    *ldp.WordEncoder
	width   int    // word oracles: bytes per word report
	maxSeed uint64 // exclusive bound on Report.Seed for word oracles; 0 = no bound
	// limit is the exclusive bound on a word Unmarshal accepts: the
	// group order, or for Hadamard the first word past its last row.
	limit    uint64
	d        int  // unary bitmap / AUE count length; 0 for word-encoded oracles
	maxCount byte // AUE: inclusive per-location count bound; 0 = bitmap encoding
}

// NewCodec returns the codec for the oracle, or an error if the oracle
// has no report wire format.
func NewCodec(fo ldp.FrequencyOracle) (*Codec, error) {
	if word, err := ldp.NewWordEncoder(fo); err == nil {
		c := &Codec{word: word, width: max(1, (bits.Len64(word.GroupOrder()-1)+7)/8), limit: word.GroupOrder()}
		if h, ok := fo.(*ldp.Hadamard); ok {
			// The word encoding admits any 32-bit row; the oracle only
			// accepts rows below the Hadamard order. A Hadamard word is
			// row*2 + bit, so those are the words below 2*Order.
			c.maxSeed = uint64(h.Order())
			c.limit = 2 * c.maxSeed
		}
		return c, nil
	}
	switch o := fo.(type) {
	case *ldp.UnaryEncoding, *ldp.OUE:
		return &Codec{d: fo.Domain()}, nil
	case *ldp.AUE:
		// A location can carry the true one-hot bit plus at most one
		// increment per blanket round; anything larger is unproducible
		// by Randomize and must flag the run.
		maxCount := o.Rounds() + 1
		if maxCount > 255 {
			maxCount = 255 // Randomize saturates its byte counters there
		}
		return &Codec{d: fo.Domain(), maxCount: byte(maxCount)}, nil
	}
	return nil, fmt.Errorf("service: oracle %s has no report codec", fo.Name())
}

// Size returns the fixed payload size in bytes: every report of one
// oracle marshals to the same length, so frames leak nothing about the
// content through their size.
func (c *Codec) Size() int {
	switch {
	case c.word != nil:
		return c.width
	case c.maxCount > 0:
		return c.d
	default:
		return (c.d + 7) / 8
	}
}

// AppendMarshal packs a report into its Size()-byte wire payload,
// appended to dst, and returns the extended slice, so the session
// client can pack a whole batch of reports into one plaintext buffer
// without a per-report allocation. A word report is stored as one
// 8-byte little-endian word and cut to its width, so it may write up to
// 8 bytes of dst's spare capacity.
func (c *Codec) AppendMarshal(dst []byte, rep ldp.Report) ([]byte, error) {
	if c.word != nil {
		if c.maxSeed > 0 && uint64(rep.Seed) >= c.maxSeed {
			return nil, fmt.Errorf("service: report seed %d outside oracle range %d", rep.Seed, c.maxSeed)
		}
		if !c.word.Valid(rep) {
			return nil, fmt.Errorf("service: report value %d outside the oracle's output range", rep.Value)
		}
		n := len(dst)
		dst = slices.Grow(dst, 8)
		binary.LittleEndian.PutUint64(dst[n:n+8], c.word.Encode(rep))
		return dst[:n+c.width], nil
	}
	if len(rep.Bits) != c.d {
		return nil, fmt.Errorf("service: report has %d locations, oracle domain is %d", len(rep.Bits), c.d)
	}
	if c.maxCount > 0 {
		for j, b := range rep.Bits {
			if b > c.maxCount {
				return nil, fmt.Errorf("service: count report location %d holds %d increments, oracle maximum is %d", j, b, c.maxCount)
			}
		}
		return append(dst, rep.Bits...), nil
	}
	base := len(dst)
	dst = append(dst, make([]byte, (c.d+7)/8)...)
	out := dst[base:]
	for j, b := range rep.Bits {
		switch b {
		case 0:
		case 1:
			out[j/8] |= 1 << (j % 8)
		default:
			return nil, errors.New("service: unary report bit outside {0, 1}")
		}
	}
	return dst, nil
}

// Unmarshal reverses AppendMarshal. Payloads of the wrong length, word
// payloads outside the oracle's report group (which Decode would wrap
// rather than reject, and which the byte width still admits up to
// 256^width − 1), Hadamard rows past the matrix order, and bitmap
// payloads with set padding bits are all rejected — a decrypted report
// must parse unambiguously or the run is flagged.
func (c *Codec) Unmarshal(data []byte) (ldp.Report, error) {
	if c.word != nil {
		if len(data) != c.width {
			return ldp.Report{}, fmt.Errorf("service: word report payload is %d bytes, want %d", len(data), c.width)
		}
		var w uint64
		for i := len(data) - 1; i >= 0; i-- {
			w = w<<8 | uint64(data[i])
		}
		if w >= c.word.GroupOrder() {
			return ldp.Report{}, fmt.Errorf("service: word report %d outside group order %d", w, c.word.GroupOrder())
		}
		rep := c.word.Decode(w)
		if c.maxSeed > 0 && uint64(rep.Seed) >= c.maxSeed {
			return ldp.Report{}, fmt.Errorf("service: report seed %d outside oracle range %d", rep.Seed, c.maxSeed)
		}
		return rep, nil
	}
	if c.maxCount > 0 {
		if len(data) != c.d {
			return ldp.Report{}, fmt.Errorf("service: count report payload is %d bytes, want %d", len(data), c.d)
		}
		bits := make([]byte, c.d)
		for j, b := range data {
			if b > c.maxCount {
				return ldp.Report{}, fmt.Errorf("service: count report location %d holds %d increments, oracle maximum is %d", j, b, c.maxCount)
			}
			bits[j] = b
		}
		return ldp.Report{Bits: bits}, nil
	}
	if len(data) != (c.d+7)/8 {
		return ldp.Report{}, fmt.Errorf("service: unary report payload is %d bytes, want %d", len(data), (c.d+7)/8)
	}
	bits := make([]byte, c.d)
	for j := range bits {
		bits[j] = (data[j/8] >> (j % 8)) & 1
	}
	for j := c.d; j < 8*len(data); j++ {
		if (data[j/8]>>(j%8))&1 != 0 {
			return ldp.Report{}, errors.New("service: unary report has set padding bits")
		}
	}
	return ldp.Report{Bits: bits}, nil
}

// foldChunk is how many words Fold stages on its stack before handing
// them to ldp.WordEncoder.AddWords in one call.
const foldChunk = 256

// Fold decodes run — a whole number of Size()-byte records, a shuffled
// batch or one WAL frame — into agg. It is the one fold both live
// ingest and WAL replay use. Word records are read straight off the run
// with Unmarshal's checks (the group order, Hadamard's row bound) and
// reach agg in bulk through ldp.WordEncoder.AddWords, so no Report is
// built on the way to CountSupport; unary and AUE records go through
// Unmarshal and Add one at a time. A record Unmarshal refuses is
// skipped, and the first such record's Unmarshal error is returned
// once the rest are folded: live ingest fails the service and keeps
// the valid reports, replay aborts.
func (c *Codec) Fold(agg ldp.Aggregator, run []byte) error {
	var first error
	size := c.Size()
	if c.word == nil {
		for off := 0; off < len(run); off += size {
			rep, err := c.Unmarshal(run[off : off+size])
			if err != nil {
				first = cmp.Or(first, err)
				continue
			}
			agg.Add(rep)
		}
		return first
	}
	var words [foldChunk]uint64
	n := 0
	mask := ^uint64(0) >> (64 - 8*size)
	for off := 0; off < len(run); off += size {
		var w uint64
		if off+8 <= len(run) {
			w = binary.LittleEndian.Uint64(run[off:]) & mask
		} else {
			for i := size - 1; i >= 0; i-- {
				w = w<<8 | uint64(run[off+i])
			}
		}
		if w >= c.limit {
			if first == nil {
				_, first = c.Unmarshal(run[off : off+size])
			}
			continue
		}
		words[n] = w
		if n++; n == len(words) {
			c.word.AddWords(agg, words[:])
			n = 0
		}
	}
	c.word.AddWords(agg, words[:n])
	return first
}
