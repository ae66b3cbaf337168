package store

// Checkpoint file encoding: a magic + version prefix, a little-endian
// body, and a CRC32C trailer over everything before it. The version
// byte sits outside nothing — it is covered by the CRC like the rest —
// but it is checked FIRST, so a checkpoint from a newer format version
// fails with ErrFutureVersion, and one from an older version with
// ErrOldVersion (clean, no partial load), rather than a checksum
// complaint.
//
//	magic "SDPC" | version u8 | body | crc32c u32 (over magic..body)
//
// Body layout:
//
//	oracle name   u16 len + bytes
//	domain        u64
//	open epoch    u64
//	exhausted     u8
//	open charged  u8
//	received, late, rejected, batches   i64 each
//	all-time blob u32 len + bytes
//	history count u32, then per epoch:
//	  epoch u64 | reports u64 | batches u64 | eps bits u64 |
//	  delta bits u64 | root blob u32 len + bytes

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"

	"shuffledp/internal/composition"
)

var ckptCRC = crc32.MakeTable(crc32.Castagnoli)

func appendBlob(buf, blob []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(blob)))
	return append(buf, blob...)
}

func encodeCheckpoint(cp *Checkpoint) ([]byte, error) {
	if len(cp.Meta.Oracle) == 0 || len(cp.Meta.Oracle) > maxNameLen {
		return nil, fmt.Errorf("store: checkpoint oracle name length %d out of range", len(cp.Meta.Oracle))
	}
	if len(cp.AllTime) > maxBlobLen {
		return nil, errors.New("store: all-time blob too large")
	}
	if len(cp.History) > maxHistoryLen {
		return nil, fmt.Errorf("store: checkpoint history of %d epochs too large", len(cp.History))
	}
	buf := make([]byte, 0, 256+len(cp.AllTime))
	buf = append(buf, ckptMagic...)
	buf = append(buf, formatVersion)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(cp.Meta.Oracle)))
	buf = append(buf, cp.Meta.Oracle...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(cp.Meta.Domain))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(cp.OpenEpoch))
	for _, b := range []bool{cp.Exhausted, cp.OpenCharged} {
		if b {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	for _, c := range []int64{cp.Received, cp.Late, cp.Rejected, cp.Batches} {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(c))
	}
	buf = appendBlob(buf, cp.AllTime)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(cp.History)))
	for _, h := range cp.History {
		if len(h.Root) > maxBlobLen {
			return nil, fmt.Errorf("store: epoch %d root blob too large", h.Epoch)
		}
		buf = binary.LittleEndian.AppendUint64(buf, uint64(h.Epoch))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(h.Reports))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(h.Batches))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(h.Guarantee.Eps))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(h.Guarantee.Delta))
		buf = appendBlob(buf, h.Root)
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, ckptCRC)), nil
}

// ckptReader is a panic-free cursor over the checkpoint body: the
// first short read latches an error and every later read returns
// zeros, so decodeCheckpoint validates once at the end.
type ckptReader struct {
	b   []byte
	err error
}

func (r *ckptReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.b) < n {
		r.err = errors.New("store: checkpoint truncated")
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *ckptReader) u8() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *ckptReader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (r *ckptReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *ckptReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *ckptReader) i64() int64 { return int64(r.u64()) }

func (r *ckptReader) intField(name string) int {
	v := r.u64()
	if v > math.MaxInt64/2 {
		r.fail(fmt.Errorf("store: checkpoint %s %d out of range", name, v))
		return 0
	}
	return int(v)
}

func (r *ckptReader) blob(name string) []byte {
	n := r.u32()
	if n > maxBlobLen {
		r.fail(fmt.Errorf("store: checkpoint %s blob of %d bytes too large", name, n))
		return nil
	}
	b := r.take(int(n))
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}

func (r *ckptReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func decodeCheckpoint(data []byte) (*Checkpoint, error) {
	prefix := len(ckptMagic) + 1
	if len(data) < prefix+4 {
		return nil, errors.New("store: checkpoint file too short")
	}
	if string(data[:len(ckptMagic)]) != ckptMagic {
		return nil, errors.New("store: bad checkpoint magic")
	}
	// Version before checksum: a future format must fail as such, not
	// as corruption.
	if v := data[len(ckptMagic)]; v != formatVersion {
		if v > formatVersion {
			return nil, fmt.Errorf("%w: checkpoint version %d, this build reads %d", ErrFutureVersion, v, formatVersion)
		}
		return nil, fmt.Errorf("%w: checkpoint version %d, this build reads %d", ErrOldVersion, v, formatVersion)
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if binary.LittleEndian.Uint32(trailer) != crc32.Checksum(body, ckptCRC) {
		return nil, errors.New("store: checkpoint checksum mismatch")
	}

	r := &ckptReader{b: body[prefix:]}
	cp := &Checkpoint{}
	nameLen := int(r.u16())
	if nameLen == 0 || nameLen > maxNameLen {
		return nil, fmt.Errorf("store: checkpoint oracle name length %d out of range", nameLen)
	}
	cp.Meta.Oracle = string(r.take(nameLen))
	cp.Meta.Domain = r.intField("domain")
	cp.OpenEpoch = r.intField("open epoch")
	cp.Exhausted = r.u8() == 1
	cp.OpenCharged = r.u8() == 1
	cp.Received = r.i64()
	cp.Late = r.i64()
	cp.Rejected = r.i64()
	cp.Batches = r.i64()
	cp.AllTime = r.blob("all-time")
	count := r.u32()
	if count > maxHistoryLen {
		return nil, fmt.Errorf("store: checkpoint history of %d epochs too large", count)
	}
	for i := uint32(0); i < count && r.err == nil; i++ {
		var h EpochCheckpoint
		h.Epoch = r.intField("history epoch")
		h.Reports = r.intField("history reports")
		h.Batches = r.i64()
		h.Guarantee = composition.Guarantee{
			Eps:   math.Float64frombits(r.u64()),
			Delta: math.Float64frombits(r.u64()),
		}
		h.Root = r.blob("history root")
		cp.History = append(cp.History, h)
	}
	if r.err != nil {
		return nil, r.err
	}
	if len(r.b) != 0 {
		return nil, fmt.Errorf("store: checkpoint has %d trailing bytes", len(r.b))
	}
	return cp, nil
}

func loadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decodeCheckpoint(data)
}
