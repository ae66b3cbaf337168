// Package transport provides the measurement and framing layer under
// the protocols: a Meter that attributes bytes sent/received and CPU
// time to named parties (users, shufflers, server — the rows of
// Table III), and length-prefixed message framing for running parties
// over real connections.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Stats is the per-party cost account.
type Stats struct {
	// SentBytes and RecvBytes count application payload bytes.
	SentBytes, RecvBytes int64
	// CPU is wall-clock time spent inside Track sections.
	CPU time.Duration
}

// cell is the live, concurrently-updated form of a party's account.
// Counters are individual atomics rather than a mutex-guarded Stats so
// that the streaming service's per-frame accounting (one Send per
// report from every connection reader) never serializes the hot path.
type cell struct {
	sent, recv atomic.Int64
	cpu        atomic.Int64 // nanoseconds
}

func (c *cell) snapshot() Stats {
	return Stats{
		SentBytes: c.sent.Load(),
		RecvBytes: c.recv.Load(),
		CPU:       time.Duration(c.cpu.Load()),
	}
}

// Meter attributes communication and computation to named parties. The
// zero value is ready to use. Meter is safe for concurrent use: updates
// are lock-free atomic adds on per-party counters, so no count is ever
// lost and concurrent readers see consistent per-counter totals.
type Meter struct {
	cells sync.Map // party string -> *cell
}

func (m *Meter) cell(party string) *cell {
	if c, ok := m.cells.Load(party); ok {
		return c.(*cell)
	}
	c, _ := m.cells.LoadOrStore(party, &cell{})
	return c.(*cell)
}

// Send records a transfer of n payload bytes from one party to another.
func (m *Meter) Send(from, to string, n int) {
	if m == nil {
		return
	}
	m.cell(from).sent.Add(int64(n))
	m.cell(to).recv.Add(int64(n))
}

// Track runs fn and attributes its wall-clock duration to party.
func (m *Meter) Track(party string, fn func()) {
	if m == nil {
		fn()
		return
	}
	start := time.Now()
	fn()
	m.cell(party).cpu.Add(int64(time.Since(start)))
}

// AddCPU attributes a pre-measured duration to party (for callers that
// time sections themselves).
func (m *Meter) AddCPU(party string, d time.Duration) {
	if m == nil {
		return
	}
	m.cell(party).cpu.Add(int64(d))
}

// Stats returns a copy of the party's account (zero Stats if unknown).
func (m *Meter) Stats(party string) Stats {
	if m == nil {
		return Stats{}
	}
	if c, ok := m.cells.Load(party); ok {
		return c.(*cell).snapshot()
	}
	return Stats{}
}

// Parties returns the sorted list of known party names.
func (m *Meter) Parties() []string {
	if m == nil {
		return nil
	}
	var out []string
	m.cells.Range(func(k, _ any) bool {
		out = append(out, k.(string))
		return true
	})
	sort.Strings(out)
	return out
}

// String renders the accounts as a small table.
func (m *Meter) String() string {
	if m == nil {
		return ""
	}
	out := ""
	for _, p := range m.Parties() {
		s := m.Stats(p)
		out += fmt.Sprintf("%-12s sent=%d recv=%d cpu=%v\n", p, s.SentBytes, s.RecvBytes, s.CPU)
	}
	return out
}

// MaxFrameSize bounds a single frame (defensive limit against corrupt
// length prefixes).
const MaxFrameSize = 1 << 30

// ErrFrameTooLarge is returned when a frame length prefix exceeds
// MaxFrameSize.
var ErrFrameTooLarge = errors.New("transport: frame exceeds maximum size")

// readChunk bounds how much a frame read allocates ahead of the bytes
// actually arriving, so a corrupt or hostile length prefix cannot force
// a huge up-front allocation.
const readChunk = 64 << 10

// readPayload reads an n32-byte payload after bound-checking the
// prefix. Checking before converting matters on 32-bit platforms: a
// prefix past 2^31 would overflow int and sail under the limit as a
// negative length, panicking in make. The buffer grows only as data
// arrives, so a connection that claims a large frame and hangs up
// costs at most one readChunk of memory beyond what it actually sent.
func readPayload(r io.Reader, n32 uint32) ([]byte, error) {
	return readPayloadLimit(r, n32, MaxFrameSize, nil)
}

// readPayloadLimit is readPayload with a caller-chosen frame cap and
// an optional reusable buffer: the payload is appended into buf[:0]
// when its capacity suffices, so a steady-state reader allocates
// nothing per frame. The cap is enforced before any payload byte is
// read — an over-limit prefix costs the caller nothing but the
// 4-to-8-byte header already consumed.
func readPayloadLimit(r io.Reader, n32 uint32, limit int, buf []byte) ([]byte, error) {
	if limit <= 0 || limit > MaxFrameSize {
		limit = MaxFrameSize
	}
	if n32 > uint32(limit) {
		return nil, fmt.Errorf("%w: %d bytes (limit %d)", ErrFrameTooLarge, n32, limit)
	}
	n := int(n32)
	payload := buf[:0]
	if payload == nil {
		payload = []byte{}
	}
	for len(payload) < n {
		old := len(payload)
		next := old + min(n-old, readChunk)
		if cap(payload) >= next {
			payload = payload[:next]
		} else {
			payload = append(payload, make([]byte, next-old)...)
		}
		if _, err := io.ReadFull(r, payload[old:]); err != nil {
			return nil, err
		}
	}
	return payload, nil
}

// WriteTaggedFrame writes a length-prefixed payload with a 4-byte tag
// between the length and the payload — the epoch-stamped report frame
// of the continual-observation service (the tag is the epoch id the
// sender is reporting into). The length prefix covers the payload
// only.
func WriteTaggedFrame(w io.Writer, tag uint32, payload []byte) error {
	if len(payload) > MaxFrameSize {
		return ErrFrameTooLarge
	}
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:], tag)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadTaggedFrameLimit reads one frame written by WriteTaggedFrame and
// returns its tag and payload. A malformed prefix makes it error, never
// panic (see readPayload). A length prefix above limit returns an error
// wrapping ErrFrameTooLarge before any payload byte is read, so an
// ingest service can refuse oversized frames cheaply instead of
// honoring the 1 GiB defensive ceiling for every connection. A limit of
// zero (or one above MaxFrameSize) falls back to MaxFrameSize.
func ReadTaggedFrameLimit(r io.Reader, limit int) (uint32, []byte, error) {
	return ReadTaggedFrameReuse(r, limit, nil)
}

// ReadTaggedFrameReuse is ReadTaggedFrameLimit with a reusable buffer:
// the 8-byte header is read into buf's first bytes (a buffer with less
// capacity is replaced by a fresh one), and the payload is then
// appended into buf[:0], so a steady-state reader that passes back the
// previously returned slice allocates nothing per frame — not even the
// header, which a stack array would make escape through r — once the
// buffer has grown to the working frame size. The returned slice
// aliases buf when capacity sufficed — the caller owns exactly one of
// them — and buf's contents are overwritten even when the read fails.
func ReadTaggedFrameReuse(r io.Reader, limit int, buf []byte) (uint32, []byte, error) {
	if cap(buf) < 8 {
		buf = make([]byte, 8)
	}
	hdr := buf[:8]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, nil, err
	}
	n, tag := binary.BigEndian.Uint32(hdr[:4]), binary.BigEndian.Uint32(hdr[4:])
	payload, err := readPayloadLimit(r, n, limit, buf)
	if err != nil {
		return 0, nil, err
	}
	return tag, payload, nil
}

// crcTable is the Castagnoli (CRC32C) polynomial table shared by the
// checked frames — the polynomial with hardware support on both amd64
// and arm64, and the conventional choice for storage framing.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrChecksum is returned by ReadCheckedFrame when a frame's CRC32C
// trailer does not match its payload — the record was corrupted (or
// torn by a crash) after it was framed.
var ErrChecksum = errors.New("transport: frame checksum mismatch")

// ReadCheckedFrame reads one checked frame — a 4-byte big-endian
// length prefix, the payload, and a 4-byte big-endian CRC32C of the
// payload, the record framing internal/store writes its write-ahead
// log in — and verifies its checksum, so a record torn by a crash or
// flipped on disk is detected at read time instead of replaying
// garbage. It returns io.EOF cleanly at a frame boundary,
// io.ErrUnexpectedEOF when the stream ends inside a record (a torn
// tail), and ErrChecksum when the record is complete but its CRC32C
// does not match.
func ReadCheckedFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	payload, err := readPayload(r, binary.BigEndian.Uint32(hdr[:]))
	if err != nil {
		if errors.Is(err, io.EOF) {
			return nil, io.ErrUnexpectedEOF
		}
		return nil, err
	}
	var sum [4]byte
	if _, err := io.ReadFull(r, sum[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, io.ErrUnexpectedEOF
		}
		return nil, err
	}
	if binary.BigEndian.Uint32(sum[:]) != crc32.Checksum(payload, crcTable) {
		return nil, ErrChecksum
	}
	return payload, nil
}

// EncodeUint64s packs words little-endian (share-vector wire format).
func EncodeUint64s(words []uint64) []byte {
	out := make([]byte, 8*len(words))
	for i, w := range words {
		binary.LittleEndian.PutUint64(out[8*i:], w)
	}
	return out
}

// DecodeUint64s reverses EncodeUint64s.
func DecodeUint64s(data []byte) ([]uint64, error) {
	if len(data)%8 != 0 {
		return nil, errors.New("transport: uint64 payload not a multiple of 8 bytes")
	}
	out := make([]uint64, len(data)/8)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(data[8*i:])
	}
	return out, nil
}
