package service

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"

	"shuffledp/internal/ldp"
)

// Codec maps ldp.Reports to and from wire payloads. It writes the
// ordinal-group word of ldp.WordEncoder (GRR, OLH/SOLH) in as few
// little-endian bytes as the group needs, max(1,
// ⌈bitlen(GroupOrder−1)/8⌉): 5 for every hashed oracle in the repo, 1
// for GRR with d ≤ 256. An oracle without a word encoding has no
// report wire format: NewCodec refuses it with the encoder's error.
//
// Unmarshal is strict: a payload either decodes to exactly one valid
// report of the oracle — one that Aggregator.Add accepts — or errors,
// and AppendMarshal(nil, Unmarshal(data)) reproduces data byte for byte. The
// canonical round-trip is what FuzzCodec locks in; a decrypted report
// that parses ambiguously (a wrapped word) flags the run instead of
// skewing the histogram or panicking a worker.
type Codec struct {
	word  *ldp.WordEncoder
	width int // bytes per word report
	// limit is the exclusive bound on a word Unmarshal accepts, the
	// group order, hoisted out of Fold's loop.
	limit uint64
}

// NewCodec returns the codec for the oracle, or an error if the oracle
// has no report wire format.
func NewCodec(fo ldp.FrequencyOracle) (*Codec, error) {
	word, err := ldp.NewWordEncoder(fo)
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	return &Codec{word: word, width: max(1, (bits.Len64(word.GroupOrder()-1)+7)/8), limit: word.GroupOrder()}, nil
}

// Size returns the fixed payload size in bytes: every report of one
// oracle marshals to the same length, so frames leak nothing about the
// content through their size.
func (c *Codec) Size() int { return c.width }

// AppendMarshal packs a report into its Size()-byte wire payload,
// appended to dst, and returns the extended slice, so the session
// client can pack a whole batch of reports into one plaintext buffer
// without a per-report allocation. A word report is stored as one
// 8-byte little-endian word and cut to its width, so it may write up to
// 8 bytes of dst's spare capacity.
func (c *Codec) AppendMarshal(dst []byte, rep ldp.Report) ([]byte, error) {
	if !c.word.Valid(rep) {
		return nil, fmt.Errorf("service: report value %d outside the oracle's output range", rep.Value)
	}
	n := len(dst)
	dst = slices.Grow(dst, 8)
	binary.LittleEndian.PutUint64(dst[n:n+8], c.word.Encode(rep))
	return dst[:n+c.width], nil
}

// Unmarshal reverses AppendMarshal. Payloads of the wrong length and
// words outside the oracle's report group (which Decode would wrap
// rather than reject, and which the byte width still admits up to
// 256^width − 1) are rejected — a decrypted report must parse
// unambiguously or the run is flagged.
func (c *Codec) Unmarshal(data []byte) (ldp.Report, error) {
	if len(data) != c.width {
		return ldp.Report{}, fmt.Errorf("service: word report payload is %d bytes, want %d", len(data), c.width)
	}
	var w uint64
	for i := len(data) - 1; i >= 0; i-- {
		w = w<<8 | uint64(data[i])
	}
	if w >= c.limit {
		return ldp.Report{}, fmt.Errorf("service: word report %d outside group order %d", w, c.limit)
	}
	return c.word.Decode(w), nil
}

// foldChunk is how many words Fold stages on its stack before handing
// them to ldp.WordEncoder.AddWords in one call.
const foldChunk = 256

// Fold decodes run — a whole number of Size()-byte records, a batch or
// one WAL frame — into agg. It is the one fold both live
// ingest and WAL replay use. Records are read straight off the run with
// Unmarshal's group-order check and reach agg in bulk through
// ldp.WordEncoder.AddWords, so no Report is built on the way to
// CountSupport. A record Unmarshal refuses is skipped, and the first
// such record's Unmarshal error is returned once the rest are folded:
// live ingest fails the service and keeps the valid reports, replay
// aborts.
func (c *Codec) Fold(agg ldp.Aggregator, run []byte) error {
	var first error
	size := c.width
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
