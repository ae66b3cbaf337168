package ldp

// Binary state serialization for the aggregator, the foundation of
// the durable epoch tier (internal/store): the accumulator of
// accumulator.go, which serves every FrequencyOracle, implements
// encoding.BinaryMarshaler / encoding.BinaryUnmarshaler with one
// versioned layout, so a sealed epoch root or the all-time aggregate
// can be checkpointed to disk and restored bit-identically.
//
// Layout (little-endian), stable across builds:
//
//	offset  size  field
//	0       1     format version (aggStateVersion)
//	1       1     aggregator kind (kindGRR or kindLocalHash)
//	2       8     domain size d
//	10      8     aux parameter (local hashing: d'; GRR: 0)
//	18      8     float64 bits of the defining probability p
//	26      8     report count n
//	34      ...   payload: d int64 counts
//
// The accumulator writes the kind byte and the echoes its oracle handed
// it (countSpec).
//
// The kind byte plus the echoed parameters make a blob self-describing
// enough that UnmarshalBinary can refuse state from a different oracle
// or parameterization with a clean error instead of folding counts into
// the wrong estimator. Decoding never panics: every length, version,
// parameter, and count is validated first (FuzzAggregatorState locks
// this in). Because the payload is the aggregator's exact integer
// statistics, UnmarshalBinary(MarshalBinary(agg)) reproduces Estimates
// bit for bit.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// aggStateVersion is the serialization format version written into
// every aggregator blob. Bump it when the layout changes; readers
// refuse versions they do not know (see ErrStateVersion).
const aggStateVersion = 1

// ErrStateVersion is wrapped by UnmarshalBinary when a blob's format
// version is not one this build reads — typically state written by a
// newer build. Callers must treat it as "do not load", never as
// partially-loadable state.
var ErrStateVersion = errors.New("ldp: unknown aggregator state version")

// Aggregator kind bytes. Append-only: a kind, once released, keeps its
// byte forever, so a blob is never read as something it is not.
//
// Local-hash support counts are only meaningful under the hash family
// that produced them, so the family is part of the kind. Byte 2 was
// local hashing over xxHash64-per-pair; it is reserved, never written
// again, and refused on load like any other kind mismatch — those
// counts cannot be merged with, or calibrated as, counts under the
// multiply-add-shift family (kindLocalHash). Bytes 3 to 6 were the
// aggregators of Hadamard, RAP/RAP_R, AUE and OUE, which no deployment
// ran; they are reserved and refused on load the same way.
const (
	kindGRR            = 1
	kindLocalHashXXH64 = 2 // retired; refused on load
	kindHadamard       = 3 // retired; refused on load
	kindUnary          = 4 // retired; refused on load
	kindAUE            = 5 // retired; refused on load
	kindOUE            = 6 // retired; refused on load
	kindLocalHash      = 7
)

// aggHeaderSize is the fixed prefix before the payload.
const aggHeaderSize = 34

// UnmarshalAggregator restores an aggregator blob produced by
// Aggregator.MarshalBinary into a fresh aggregator of fo. It is the
// load-side convenience the durable store uses: the oracle supplies
// the parameters, the blob supplies the state, and any mismatch
// between the two errors instead of mis-calibrating.
func UnmarshalAggregator(fo FrequencyOracle, data []byte) (Aggregator, error) {
	agg := fo.NewAggregator()
	if err := agg.UnmarshalBinary(data); err != nil {
		return nil, err
	}
	return agg, nil
}

func appendAggHeader(buf []byte, kind byte, d, aux uint64, param float64, n int) []byte {
	buf = append(buf, aggStateVersion, kind)
	buf = binary.LittleEndian.AppendUint64(buf, d)
	buf = binary.LittleEndian.AppendUint64(buf, aux)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(param))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(n))
	return buf
}

// parseAggHeader validates the fixed prefix against the receiver's
// kind and parameters and returns the report count and payload.
func parseAggHeader(data []byte, kind byte, d, aux uint64, param float64) (int, []byte, error) {
	if len(data) < aggHeaderSize {
		return 0, nil, fmt.Errorf("ldp: aggregator state is %d bytes, header needs %d", len(data), aggHeaderSize)
	}
	if v := data[0]; v != aggStateVersion {
		return 0, nil, fmt.Errorf("%w: blob version %d, this build reads %d", ErrStateVersion, v, aggStateVersion)
	}
	if k := data[1]; k != kind {
		return 0, nil, fmt.Errorf("ldp: aggregator state kind %d, receiver is kind %d", k, kind)
	}
	if got := binary.LittleEndian.Uint64(data[2:]); got != d {
		return 0, nil, fmt.Errorf("ldp: aggregator state domain %d, receiver has %d", got, d)
	}
	if got := binary.LittleEndian.Uint64(data[10:]); got != aux {
		return 0, nil, fmt.Errorf("ldp: aggregator state aux parameter %d, receiver has %d", got, aux)
	}
	if got := binary.LittleEndian.Uint64(data[18:]); got != math.Float64bits(param) {
		return 0, nil, fmt.Errorf("ldp: aggregator state probability %g, receiver has %g",
			math.Float64frombits(got), param)
	}
	n64 := binary.LittleEndian.Uint64(data[26:])
	if n64 > math.MaxInt64/2 {
		return 0, nil, fmt.Errorf("ldp: aggregator state report count %d out of range", n64)
	}
	return int(n64), data[aggHeaderSize:], nil
}

// MarshalBinary implements Aggregator for every count oracle. The
// staged block is flushed first so the folded counts are the complete
// state; counts not yet allocated (an empty aggregator) are written as
// d zeros, so the encoding is canonical either way.
func (a *accumulator) MarshalBinary() ([]byte, error) {
	a.flush()
	buf := make([]byte, 0, aggHeaderSize+8*a.d)
	buf = appendAggHeader(buf, a.kind, uint64(a.d), uint64(a.aux), a.param, a.n)
	for i := 0; i < a.d; i++ {
		var c int
		if a.counts != nil {
			c = a.counts[i]
		}
		buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(c)))
	}
	return buf, nil
}

// UnmarshalBinary implements Aggregator, replacing the receiver's
// state (including any staged block). The header must echo the
// receiver's kind and parameters, and a payload of the wrong length or
// with counts no aggregation run can produce (negative) is refused.
func (a *accumulator) UnmarshalBinary(data []byte) error {
	if a.kind == kindLocalHash && len(data) >= aggHeaderSize && data[0] == aggStateVersion && data[1] == kindLocalHashXXH64 {
		return fmt.Errorf("ldp: aggregator state kind %d holds local-hash counts under the retired xxHash64 family; they cannot be loaded under the current family (kind %d)", kindLocalHashXXH64, kindLocalHash)
	}
	n, payload, err := parseAggHeader(data, a.kind, uint64(a.d), uint64(a.aux), a.param)
	if err != nil {
		return err
	}
	if len(payload) != 8*a.d {
		return fmt.Errorf("ldp: aggregator state payload is %d bytes, want %d", len(payload), 8*a.d)
	}
	counts := make([]int, a.d)
	for i := range counts {
		c := int64(binary.LittleEndian.Uint64(payload[8*i:]))
		if c < 0 {
			return fmt.Errorf("ldp: aggregator state count[%d] = %d is negative", i, c)
		}
		counts[i] = int(c)
	}
	a.n, a.counts = n, counts
	a.seeds, a.ys = nil, nil
	return nil
}
