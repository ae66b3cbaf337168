package service

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"

	"shuffledp/internal/ldp"
)

// Codec owns the service's report format. A report travels as the
// ordinal-group word of ldp.WordEncoder (GRR, OLH/SOLH) in B =
// max(8, bitlen(GroupOrder−1)) bits, and a session frame's plaintext —
// which the WAL logs as it arrived — is its words packed little-endian
// bit after bit: word i occupies bits [iB, (i+1)B) of the frame, and
// the frame is L = ⌈nB/8⌉ bytes with zero pad bits. That is 36, 38 and
// 39 bits for SOLH at d′ = 16, 64 and 111, 8 for GRR with d ≤ 256 and
// 9 for GRR at d = 300. An oracle without a word encoding has no
// report wire format: NewCodec refuses it with the encoder's error.
//
// The client packs with a packer; every reader runs unpack, the one
// canonical parse, on each opened frame, and from the reader on the
// pipeline carries 8-byte words. unpack is strict: a plaintext either
// parses to n = ⌊8L/B⌋ ≥ 1 words, each below GroupOrder, with L =
// ⌈nB/8⌉ and zero pad bits, or errors, so packing the words again
// reproduces it byte for byte. That canonical round-trip is what
// FuzzCodec locks in; a frame that parses ambiguously is refused whole.
type Codec struct {
	word *ldp.WordEncoder
	// bits is B, the bits one word report takes in a frame.
	bits uint
	// width is the byte width of AppendMarshal and Unmarshal's
	// one-report payloads, ⌈B/8⌉.
	width int
	// limit is the exclusive bound on a word unpack accepts, the group
	// order.
	limit uint64
}

// NewCodec returns the codec for the oracle, or an error if the oracle
// has no report wire format.
func NewCodec(fo ldp.FrequencyOracle) (*Codec, error) {
	word, err := ldp.NewWordEncoder(fo)
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	b := uint(max(8, bits.Len64(word.GroupOrder()-1)))
	return &Codec{word: word, bits: b, width: int(b+7) / 8, limit: word.GroupOrder()}, nil
}

// Size returns the byte width of one report's AppendMarshal payload,
// ⌈B/8⌉. The service neither sends nor logs such payloads; Size,
// AppendMarshal and Unmarshal stay because the benchmark's replay
// prices its service.codec_marshal and service.codec_unmarshal layers
// with them, one report at a time (ROADMAP item 6(e)).
func (c *Codec) Size() int { return c.width }

// AppendMarshal appends a report's word to dst in Size() little-endian
// bytes: the payload of a frame that holds that one report. Only the
// benchmark's replay calls it (see Size).
func (c *Codec) AppendMarshal(dst []byte, rep ldp.Report) ([]byte, error) {
	w, err := c.encode(rep)
	if err != nil {
		return nil, err
	}
	n := len(dst)
	dst = slices.Grow(dst, 8)
	binary.LittleEndian.PutUint64(dst[n:n+8], w)
	return dst[:n+c.width], nil
}

// Unmarshal reverses AppendMarshal: it parses a Size()-byte payload
// as a one-report frame, with unpack's checks. Only the benchmark's
// replay calls it (see Size).
func (c *Codec) Unmarshal(data []byte) (ldp.Report, error) {
	if len(data) != c.width {
		return ldp.Report{}, fmt.Errorf("service: word report payload is %d bytes, want %d", len(data), c.width)
	}
	var w [1]uint64
	if _, err := c.unpack(w[:0], data); err != nil {
		return ldp.Report{}, err
	}
	return c.word.Decode(w[0]), nil
}

// encode returns a report's word, refusing a report outside the
// oracle's output range.
func (c *Codec) encode(rep ldp.Report) (uint64, error) {
	if !c.word.Valid(rep) {
		return 0, fmt.Errorf("service: report value %d outside the oracle's output range", rep.Value)
	}
	return c.word.Encode(rep), nil
}

// packer accumulates one frame's words, B bits each, little-endian bit
// after bit. Whole 64-bit groups go to buf as they fill; the bits past
// the last whole group wait in acc until bytes completes the frame.
type packer struct {
	bits    uint   // B
	buf     []byte // the whole 64-bit groups packed so far
	acc     uint64 // the pending bits, lowest first
	pending uint   // how many of acc's bits are pending, < 64
	n       int    // words packed
}

// newPacker returns an empty packer sized for a frame of reports words.
func (c *Codec) newPacker(reports int) packer {
	return packer{bits: c.bits, buf: make([]byte, 0, (reports*int(c.bits)+63)/64*8)}
}

// add packs w, which must be below 2^B.
func (p *packer) add(w uint64) {
	p.acc |= w << p.pending
	p.n++
	if p.pending += p.bits; p.pending < 64 {
		return
	}
	p.buf = binary.LittleEndian.AppendUint64(p.buf, p.acc)
	p.pending -= 64
	// The low 64 − (old pending) bits of w went out with the group; a
	// shift by B when none are left clears acc.
	p.acc = w >> (p.bits - p.pending)
}

// bytes completes the frame — the pending bits in ⌈pending/8⌉ bytes,
// the pad bits zero — and returns it, ⌈nB/8⌉ bytes. The packer must be
// reset before the next add.
func (p *packer) bytes() []byte {
	for k := uint(0); k < p.pending; k += 8 {
		p.buf = append(p.buf, byte(p.acc>>k))
	}
	p.acc, p.pending = 0, 0
	return p.buf
}

// reset empties the packer, keeping its buffer.
func (p *packer) reset() { p.buf, p.acc, p.pending, p.n = p.buf[:0], 0, 0, 0 }

// unpack appends the words of pt, one opened frame or WAL record, to
// dst and returns the extended slice. It is the one canonical parse:
// pt must hold n = ⌊8L/B⌋ ≥ 1 words in exactly L = ⌈nB/8⌉ bytes, with
// zero pad bits and every word below GroupOrder, or unpack errors and
// dst's length is unchanged. A reader kicks the connection whose frame
// fails; WAL replay aborts.
func (c *Codec) unpack(dst []uint64, pt []byte) ([]uint64, error) {
	b := int(c.bits)
	n := 8 * len(pt) / b
	if n == 0 || (n*b+7)/8 != len(pt) {
		return dst, fmt.Errorf("service: %d-byte frame is not a whole number of %d-bit reports", len(pt), b)
	}
	if r := n * b % 8; r != 0 && pt[len(pt)-1]>>r != 0 {
		return dst, fmt.Errorf("service: %d-byte frame of %d-bit reports has nonzero pad bits", len(pt), b)
	}
	start := len(dst)
	dst = slices.Grow(dst, n)[:start+n]
	out := dst[start:]
	mask := ^uint64(0) >> (64 - c.bits)
	i, bit := 0, 0
	if b <= 56 {
		// A word at any bit offset lies inside the eight bytes from its
		// first: one load per word while eight remain.
		for ; i < n && bit>>3+8 <= len(pt); i, bit = i+1, bit+b {
			out[i] = binary.LittleEndian.Uint64(pt[bit>>3:]) >> (bit & 7) & mask
		}
	}
	var tail [16]byte
	for ; i < n; i, bit = i+1, bit+b {
		// Nine bytes cover a word at any bit offset: B + 7 ≤ 71 bits. The
		// last words load through a zeroed copy; a shift by 64 when the
		// offset is byte-aligned drops the ninth byte.
		src := pt[bit>>3:]
		if len(src) < 9 {
			tail = [16]byte{}
			copy(tail[:], src)
			src = tail[:]
		}
		sh := uint(bit & 7)
		out[i] = (binary.LittleEndian.Uint64(src)>>sh | uint64(src[8])<<(64-sh)) & mask
	}
	for _, w := range out {
		if w >= c.limit {
			return dst[:start], fmt.Errorf("service: word report %d outside group order %d", w, c.limit)
		}
	}
	return dst, nil
}

// Fold adds words, which unpack has checked, into agg. It is the one
// fold both live ingest and WAL replay use: the words reach agg's
// counting kernel through ldp.WordEncoder.AddWords, with no Report in
// between.
func (c *Codec) Fold(agg ldp.Aggregator, words []uint64) { c.word.AddWords(agg, words) }
