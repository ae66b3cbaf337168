// Package store is the durability layer of the continual-observation
// service (internal/service): a write-ahead log for accepted report
// frames plus checkpoint snapshots taken at every epoch rotation, so a
// restarted analyzer recovers to a state bit-identical to an
// uninterrupted run — the prerequisite for re-starting without
// re-spending privacy budget.
//
// On-disk layout under one data directory:
//
//	wal-00000001.log    WAL segments: CRC32C-framed records
//	ckpt-00000001.snap  checkpoint snapshots, highest index wins
//
// Each WAL record is a checked frame (length prefix + payload + CRC32C
// trailer, read back by transport.ReadCheckedFrame) whose payload
// starts with a record-type byte: the reports of one accepted session
// frame, sealed once under the at-rest key and tagged with the epoch
// they were routed to; a counted drop (how many reports one late or rejected frame carried);
// or a rotation marker sealing one epoch and naming the next. The unit
// of the log is what arrived — a frame — not the report: the service
// appends a frame's record before the first of its reports is batched
// toward any worker, so every report that can influence an estimate is
// on its way to disk first, and a torn tail loses whole frames (the
// recovered Received count sits on a frame boundary, which is where a
// client resumes).
//
// A checkpoint is written at every epoch seal and captures the whole
// durable state: sealed-epoch history roots (ldp aggregator blobs) —
// the service's only record of what it sealed, whose merge is its
// all-time estimate — the open epoch id with whether it was already
// paid for or the budget ran out — recovery re-derives the ledger's
// spending from these rather than storing it — and the service
// counters at the rotation boundary. Segments are cut at
// rotation markers, so once a checkpoint with open epoch E is durable
// every segment holding only records of epochs before E is deleted —
// the WAL never grows past roughly one epoch of traffic.
//
// Recovery (Open on a non-empty directory) loads the newest valid
// checkpoint and replays the WAL tail: records for epochs the
// checkpoint already covers are skipped, a torn final record (a crash
// mid-write) truncates the tail cleanly, a whole record — its checksum
// holds — that does not decode is refused wherever it sits, and state
// written by a newer format version is refused with ErrFutureVersion,
// and by an older one with ErrOldVersion, rather than loaded
// partially. See DESIGN.md §8
// for the recovery invariants.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"shuffledp/internal/composition"
)

// SyncPolicy selects when the WAL is fsynced. Checkpoints and rotation
// markers are always fsynced regardless of policy — only per-record
// durability is negotiable, and a record is one accepted session frame
// (or one counted drop), never one report.
type SyncPolicy int

const (
	// SyncBatch (the default) fsyncs at Commit, which the service
	// calls at every batch boundary: a crash loses at most the
	// frames logged since the last flush.
	SyncBatch SyncPolicy = iota
	// SyncAlways fsyncs after every appended record: every accepted
	// frame is fsynced before any of its reports is batched, so no
	// accepted report is ever lost, at one fsync per frame.
	SyncAlways
	// SyncNone flushes records to the OS at Commit but never fsyncs
	// between checkpoints: a process crash loses nothing, a power cut
	// may lose everything since the last rotation.
	SyncNone
)

// String implements flag.Value-style printing ("batch", "always",
// "none").
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncNone:
		return "none"
	default:
		return "batch"
	}
}

// ParseSyncPolicy maps the -fsync flag values to a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "batch":
		return SyncBatch, nil
	case "always":
		return SyncAlways, nil
	case "none":
		return SyncNone, nil
	}
	return 0, fmt.Errorf("store: unknown fsync policy %q (want always, batch, or none)", s)
}

// formatVersion is the on-disk format version stamped into every WAL
// segment header and checkpoint. Readers refuse newer versions with
// ErrFutureVersion and older ones with ErrOldVersion. Version 4's
// service checkpoint holds no all-time aggregate — the merge of its
// history is the all-time estimate — so a version-3 reader, which
// would restore an empty one, refuses it; version 3's checkpoint
// stores no ledger count — recovery works out what was paid from what
// was sealed; version 2 stored one, and version 1 padded the service's
// word reports to 8 bytes instead of their group's width.
const formatVersion = 4

// ErrFutureVersion is returned when a segment or checkpoint was
// written by a newer format version than this build reads. The state
// is intact — run it through the newer build — but nothing is loaded.
var ErrFutureVersion = errors.New("store: state written by a newer format version")

// ErrOldVersion is returned when a segment or checkpoint was written
// by an older format version. Old state is refused, not migrated:
// nothing is loaded, and the directory is left as it was.
var ErrOldVersion = errors.New("store: state written by an older format version")

// ErrExists is returned by Create when the directory already holds
// durable state; a fresh service must not silently overwrite it (use
// Open / service.Recover).
var ErrExists = errors.New("store: directory already holds durable state")

// ErrNoState is returned by Open when the directory holds no durable
// state to recover.
var ErrNoState = errors.New("store: directory holds no durable state")

// Meta identifies the service configuration a data directory belongs
// to. It is stamped into every checkpoint and validated on recovery so
// state cannot be replayed under a different oracle.
type Meta struct {
	// Oracle is the frequency oracle's Name().
	Oracle string
	// Domain is the oracle's value-domain size d.
	Domain int
}

// Record types. Append-only: a released type keeps its byte forever.
// Byte 1 stays reserved: it was the words record older cluster.Analyzer
// builds logged, which no reader decodes any more.
const (
	// RecordDrop is the reports of one dropped frame, counted but never
	// aggregated: epoch, reason, and an optional little-endian uint32
	// count after the reason byte. A record without the count (the
	// 6-byte shape every build before the count wrote) is one report,
	// and a count of one is always written that way.
	RecordDrop byte = 2
	// RecordRotate seals one epoch and names the next (or none, when
	// the budget ledger refused it).
	RecordRotate byte = 3
	// RecordSealedReport is one accepted session frame: its reports
	// arrived under a connection-ephemeral session key (no re-derivable
	// ciphertext exists), so the service re-seals the frame's plaintext —
	// a whole number of fixed-size reports, one or many — once under its
	// at-rest storage key (ecies.StorageSealer) before logging. The
	// payload is the sealed storage record, so the service's WAL never
	// holds a plaintext report; the store does not look inside it, so how many reports a record holds
	// is the service's business.
	RecordSealedReport byte = 4
)

// Drop reasons carried by RecordDrop.
const (
	// DropLate marks a report asserting an epoch that is not open.
	DropLate byte = 0
	// DropRejected marks a report refused after budget exhaustion.
	DropRejected byte = 1
)

// Record is one WAL entry.
type Record struct {
	// Type is one of RecordDrop, RecordRotate, RecordSealedReport.
	Type byte
	// Epoch is the epoch a report or drop was accounted to, or the
	// epoch a rotation sealed.
	Epoch uint32
	// Next is the epoch a rotation opened, -1 when the ledger refused
	// to open one (budget exhausted). Meaningful only for RecordRotate.
	Next int64
	// Reason is the drop reason (DropLate, DropRejected). Meaningful
	// only for RecordDrop.
	Reason byte
	// Count is how many reports the drop covers, at least 1.
	// Meaningful only for RecordDrop.
	Count uint32
	// Payload is a session frame's sealed storage record. Meaningful
	// only for RecordSealedReport.
	Payload []byte
}

// EpochCheckpoint is one sealed epoch inside a Checkpoint: the frozen
// snapshot fields plus the marshaled root aggregator the window
// queries clone-merge from.
type EpochCheckpoint struct {
	// Epoch is the sealed epoch's id.
	Epoch int
	// Reports is how many reports the epoch aggregated.
	Reports int
	// Batches is how many shuffled batches the epoch received.
	Batches int64
	// Guarantee is the per-epoch privacy guarantee charged for it.
	Guarantee composition.Guarantee
	// Root is the epoch root aggregator's MarshalBinary blob.
	Root []byte
}

// Checkpoint is the durable state snapshot written at every epoch
// seal. Restoring it plus replaying the WAL tail reproduces the
// service bit-identically.
type Checkpoint struct {
	// Meta echoes the service configuration for validation on load.
	Meta Meta
	// OpenEpoch is the id of the epoch open after the seal this
	// checkpoint recorded (when Exhausted, the id the next epoch would
	// have had).
	OpenEpoch int
	// Exhausted records that the budget ledger refused to open another
	// epoch: a recovered service must keep refusing ingestion.
	Exhausted bool
	// OpenCharged records whether OpenEpoch was already opened, and so
	// paid for, when the checkpoint was written. True for checkpoints
	// written by a rotation (the payment precedes the marker); false
	// for a drain seal, whose "next" epoch only ever opens if the
	// directory is recovered. Recovery pays through OpenEpoch either
	// way; only an epoch a drain left may be refused, and the service
	// then recovers exhausted.
	OpenCharged bool
	// Received, Late, Rejected, and Batches are the durable service
	// counters at the rotation boundary.
	Received, Late, Rejected, Batches int64
	// AllTime is an opaque state blob the writer may carry alongside
	// its history: cluster.Analyzer keeps its running totals here. The
	// service writes none — its all-time estimate is the merge of
	// History.
	AllTime []byte
	// History is the retained sealed-epoch records, oldest first.
	History []EpochCheckpoint
}

// Recovered is what Open found on disk: the newest checkpoint (nil if
// none was ever written) and the WAL tail past it, already filtered to
// the records the checkpoint does not cover.
type Recovered struct {
	// Checkpoint is the newest valid checkpoint, nil if none exists.
	Checkpoint *Checkpoint
	// Tail holds the WAL records not covered by Checkpoint, in append
	// order.
	Tail []Record
	// TornTail reports that the final WAL record was torn (a crash
	// mid-write) and the tail was truncated at the last whole record.
	TornTail bool
}

const (
	segmentPrefix  = "wal-"
	segmentSuffix  = ".log"
	ckptPrefix     = "ckpt-"
	ckptSuffix     = ".snap"
	segmentMagic   = "SDPW"
	ckptMagic      = "SDPC"
	maxNameLen     = 256
	maxHistoryLen  = 1 << 20
	maxBlobLen     = 1 << 30
	segHeaderExtra = 8 // epoch open at segment creation
)

// --- record encoding ---

// appendRecord appends rec's encoding — type byte, epoch, then the
// type's fields — to dst.
func appendRecord(dst []byte, rec Record) []byte {
	dst = append(dst, rec.Type)
	dst = binary.LittleEndian.AppendUint32(dst, rec.Epoch)
	switch rec.Type {
	case RecordSealedReport:
		return append(dst, rec.Payload...)
	case RecordDrop:
		dst = append(dst, rec.Reason)
		if rec.Count == 1 {
			return dst
		}
		return binary.LittleEndian.AppendUint32(dst, rec.Count)
	case RecordRotate:
		return binary.LittleEndian.AppendUint64(dst, uint64(rec.Next))
	}
	panic(fmt.Sprintf("store: encoding unknown record type %d", rec.Type))
}

// crcTable is the CRC32C (Castagnoli) table of the record trailer.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// appendFrame appends rec as one WAL record to dst: a big-endian length
// prefix, the record's encoding and a big-endian CRC32C of the
// encoding — the checked frame transport.ReadCheckedFrame reads back.
func appendFrame(dst []byte, rec Record) []byte {
	base := len(dst)
	dst = appendRecord(append(dst, 0, 0, 0, 0), rec)
	enc := dst[base+4:]
	binary.BigEndian.PutUint32(dst[base:], uint32(len(enc)))
	return binary.BigEndian.AppendUint32(dst, crc32.Checksum(enc, crcTable))
}

func decodeRecord(payload []byte) (Record, error) {
	if len(payload) == 0 {
		return Record{}, errors.New("store: empty WAL record")
	}
	switch payload[0] {
	case RecordSealedReport:
		if len(payload) < 5 {
			return Record{}, errors.New("store: truncated report record")
		}
		return Record{
			Type:    RecordSealedReport,
			Epoch:   binary.LittleEndian.Uint32(payload[1:]),
			Payload: append([]byte(nil), payload[5:]...),
		}, nil
	case RecordDrop:
		count := uint32(1)
		switch len(payload) {
		case 6:
		case 10:
			// One encoding per record: zero reports is no drop at all,
			// and one report is the 6-byte shape.
			if count = binary.LittleEndian.Uint32(payload[6:]); count < 2 {
				return Record{}, fmt.Errorf("store: drop record with an explicit count of %d", count)
			}
		default:
			return Record{}, errors.New("store: malformed drop record")
		}
		if r := payload[5]; r != DropLate && r != DropRejected {
			return Record{}, fmt.Errorf("store: unknown drop reason %d", r)
		}
		return Record{
			Type:   RecordDrop,
			Epoch:  binary.LittleEndian.Uint32(payload[1:]),
			Reason: payload[5],
			Count:  count,
		}, nil
	case RecordRotate:
		if len(payload) != 13 {
			return Record{}, errors.New("store: malformed rotate record")
		}
		next := int64(binary.LittleEndian.Uint64(payload[5:]))
		if next < -1 || next > math.MaxUint32 {
			return Record{}, fmt.Errorf("store: rotate record next epoch %d out of range", next)
		}
		return Record{
			Type:  RecordRotate,
			Epoch: binary.LittleEndian.Uint32(payload[1:]),
			Next:  next,
		}, nil
	}
	return Record{}, fmt.Errorf("store: unknown WAL record type %d", payload[0])
}
