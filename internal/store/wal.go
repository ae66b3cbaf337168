package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"shuffledp/internal/transport"
)

// Store is an open data directory: the current WAL segment being
// appended to plus the checkpoint series. All methods are safe for
// concurrent use — the service appends records from its connection
// readers while rotations write checkpoints from the caller's
// goroutine.
type Store struct {
	dir  string
	meta Meta
	sync SyncPolicy

	mu        sync.Mutex
	closed    bool
	seg       *os.File
	segw      *bufio.Writer
	segIndex  uint64
	segEpochs map[uint64]uint64 // on-disk segment index -> epoch open at creation
	ckpts     []uint64          // on-disk checkpoint indexes, ascending
	// frame is the scratch every record is framed in before its one
	// write, so an append allocates nothing once it has grown to the
	// largest record.
	frame []byte

	// ckptMu serializes checkpoint writers without blocking appends
	// (WriteCheckpoint's disk I/O runs under it, outside mu).
	ckptMu sync.Mutex
}

type segmentInfo struct {
	index uint64
	path  string
}

func segmentPath(dir string, index uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%08d%s", segmentPrefix, index, segmentSuffix))
}

func ckptPath(dir string, index uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%08d%s", ckptPrefix, index, ckptSuffix))
}

func parseIndexed(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	n, err := strconv.ParseUint(name[len(prefix):len(name)-len(suffix)], 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// Create initializes a fresh data directory (making it if needed) and
// opens the first WAL segment. It refuses a directory that already
// holds durable state with ErrExists — recovering is Open's job, and a
// fresh service must never silently shadow an existing run.
func Create(dir string, meta Meta, sync SyncPolicy) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create data dir: %w", err)
	}
	segs, cks, err := scanDir(dir)
	if err != nil {
		return nil, err
	}
	if len(segs) > 0 || len(cks) > 0 {
		return nil, fmt.Errorf("%w: %s", ErrExists, dir)
	}
	s := &Store{dir: dir, meta: meta, sync: sync, segEpochs: map[uint64]uint64{}}
	if err := s.openSegment(1, 0); err != nil {
		return nil, err
	}
	return s, nil
}

// Open loads an existing data directory for recovery: it picks the
// newest valid checkpoint, replays every WAL segment past it into
// Recovered.Tail (truncating a torn final record), validates meta, and
// leaves the store ready for appending on a fresh segment. A directory
// with no state returns ErrNoState.
func Open(dir string, meta Meta, sync SyncPolicy) (*Store, *Recovered, error) {
	segs, cks, err := scanDir(dir)
	if err != nil {
		return nil, nil, err
	}
	if len(segs) == 0 && len(cks) == 0 {
		return nil, nil, fmt.Errorf("%w: %s", ErrNoState, dir)
	}

	s := &Store{dir: dir, meta: meta, sync: sync, segEpochs: map[uint64]uint64{}}
	rec := &Recovered{}

	// Newest checkpoint wins. A lower-indexed checkpoint is only a
	// fallback for the atomic-rename crash window (the tmp file was
	// never renamed), not for arbitrary corruption: a newest
	// checkpoint that exists but fails to parse is a hard error.
	if len(cks) > 0 {
		idx := cks[len(cks)-1]
		cp, err := loadCheckpoint(ckptPath(dir, idx))
		if err != nil {
			return nil, nil, fmt.Errorf("store: checkpoint %d: %w", idx, err)
		}
		if cp.Meta != meta {
			return nil, nil, fmt.Errorf("store: checkpoint is for oracle %s over domain %d, service runs %s over domain %d",
				cp.Meta.Oracle, cp.Meta.Domain, meta.Oracle, meta.Domain)
		}
		rec.Checkpoint = cp
		s.ckpts = cks
	}

	// Replay segments oldest-first, filtering records the checkpoint
	// already covers. Only the final segment may end in a torn record;
	// anything unreadable earlier is corruption, not a crash artifact.
	minEpoch := uint32(0)
	if rec.Checkpoint != nil {
		minEpoch = uint32(rec.Checkpoint.OpenEpoch)
	}
	openEpoch := uint64(minEpoch)
	for i, seg := range segs {
		last := i == len(segs)-1
		records, segEpoch, validOff, torn, err := readSegment(seg.path, last)
		if err != nil {
			return nil, nil, fmt.Errorf("store: segment %d: %w", seg.index, err)
		}
		if torn {
			// Truncate the tear away on disk so the next recovery sees
			// a clean segment boundary instead of mid-stream damage; a
			// segment torn inside its own header is simply removed.
			rec.TornTail = true
			if validOff < int64(segmentHeaderLen) {
				os.Remove(seg.path)
				s.segIndex = seg.index
				continue
			}
			if err := os.Truncate(seg.path, validOff); err != nil {
				return nil, nil, fmt.Errorf("store: truncating torn segment %d: %w", seg.index, err)
			}
		}
		s.segEpochs[seg.index] = segEpoch
		for _, r := range records {
			// A record accounted to an epoch before the checkpoint's
			// open epoch — including a rotate marker sealing one — is
			// already covered by the checkpoint.
			if r.Epoch < minEpoch {
				continue
			}
			rec.Tail = append(rec.Tail, r)
			if r.Type == RecordRotate && r.Next >= 0 {
				openEpoch = uint64(r.Next)
			}
		}
		s.segIndex = seg.index
	}

	// Append into a fresh segment: the torn tail (if any) stays
	// truncated on disk implicitly because replay stops at the last
	// whole record and pruning removes the old segment at the next
	// checkpoint.
	if err := s.openSegment(s.segIndex+1, openEpoch); err != nil {
		return nil, nil, err
	}
	return s, rec, nil
}

func scanDir(dir string) ([]segmentInfo, []uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil, fmt.Errorf("%w: %s", ErrNoState, dir)
		}
		return nil, nil, fmt.Errorf("store: scan data dir: %w", err)
	}
	var segs []segmentInfo
	var cks []uint64
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if idx, ok := parseIndexed(e.Name(), segmentPrefix, segmentSuffix); ok {
			segs = append(segs, segmentInfo{index: idx, path: filepath.Join(dir, e.Name())})
		}
		if idx, ok := parseIndexed(e.Name(), ckptPrefix, ckptSuffix); ok {
			cks = append(cks, idx)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].index < segs[j].index })
	sort.Slice(cks, func(i, j int) bool { return cks[i] < cks[j] })
	return segs, cks, nil
}

// segmentHeaderLen is the byte length of a segment header.
const segmentHeaderLen = len(segmentMagic) + 1 + segHeaderExtra

// readSegment parses the WAL segment at path; see parseSegment.
func readSegment(path string, last bool) (records []Record, segEpoch uint64, validOff int64, torn bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, 0, false, err
	}
	defer f.Close()
	return parseSegment(bufio.NewReader(f), last)
}

// parseSegment parses one WAL segment's bytes — whatever a crash left
// on disk — tracking validOff, the byte offset after the last whole
// record. In the final segment (last=true) a torn trailing record —
// truncated mid-write by a crash — ends the replay cleanly at validOff;
// in any earlier segment it is corruption and errors. A whole record
// whose checksum holds but which does not decode is no tear in any
// segment: it was written by something else, and is refused.
func parseSegment(br io.Reader, last bool) (records []Record, segEpoch uint64, validOff int64, torn bool, err error) {
	hdr := make([]byte, segmentHeaderLen)
	if _, err := io.ReadFull(br, hdr); err != nil {
		if last {
			// A segment created but torn before its header completed:
			// an empty tail.
			return nil, 0, 0, true, nil
		}
		return nil, 0, 0, false, fmt.Errorf("reading header: %w", err)
	}
	if string(hdr[:len(segmentMagic)]) != segmentMagic {
		return nil, 0, 0, false, errors.New("bad segment magic")
	}
	if v := hdr[len(segmentMagic)]; v != formatVersion {
		if v > formatVersion {
			return nil, 0, 0, false, fmt.Errorf("%w: segment version %d, this build reads %d", ErrFutureVersion, v, formatVersion)
		}
		return nil, 0, 0, false, fmt.Errorf("%w: segment version %d, this build reads %d", ErrOldVersion, v, formatVersion)
	}
	segEpoch = binary.LittleEndian.Uint64(hdr[len(segmentMagic)+1:])
	validOff = int64(segmentHeaderLen)

	for {
		payload, err := transport.ReadCheckedFrame(br)
		if err != nil {
			if errors.Is(err, io.EOF) {
				return records, segEpoch, validOff, false, nil
			}
			if last && (errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, transport.ErrChecksum) ||
				errors.Is(err, transport.ErrFrameTooLarge)) {
				// The crash tore the final record mid-write (a corrupt
				// length prefix is the same tear one field earlier);
				// everything before it replays.
				return records, segEpoch, validOff, true, nil
			}
			return nil, 0, 0, false, fmt.Errorf("reading record: %w", err)
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			return nil, 0, 0, false, err
		}
		records = append(records, rec)
		validOff += int64(4 + len(payload) + 4)
	}
}

// openSegment starts a new WAL segment stamped with the epoch open at
// its creation. Callers hold mu (or own the store exclusively).
func (s *Store) openSegment(index, epoch uint64) error {
	f, err := os.OpenFile(segmentPath(s.dir, index), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: create segment: %w", err)
	}
	w := bufio.NewWriterSize(f, 64<<10)
	hdr := make([]byte, 0, len(segmentMagic)+1+segHeaderExtra)
	hdr = append(hdr, segmentMagic...)
	hdr = append(hdr, formatVersion)
	hdr = binary.LittleEndian.AppendUint64(hdr, epoch)
	if _, err := w.Write(hdr); err != nil {
		f.Close()
		return err
	}
	s.seg, s.segw, s.segIndex = f, w, index
	s.segEpochs[index] = epoch
	syncDir(s.dir)
	return nil
}

// writeRecord frames rec in the store's scratch — length, encoding and
// CRC32C in one buffer — and writes it onto the current segment in one
// call. Callers hold mu.
func (s *Store) writeRecord(rec Record) error {
	s.frame = appendFrame(s.frame[:0], rec)
	if len(s.frame)-8 > transport.MaxFrameSize {
		return transport.ErrFrameTooLarge
	}
	_, err := s.segw.Write(s.frame)
	return err
}

// append frames one record onto the current segment.
func (s *Store) append(rec Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("store: append after close")
	}
	if err := s.writeRecord(rec); err != nil {
		return fmt.Errorf("store: append WAL record: %w", err)
	}
	if s.sync == SyncAlways {
		if err := s.segw.Flush(); err != nil {
			return err
		}
		return s.seg.Sync()
	}
	return nil
}

// AppendSealedReport logs the reports of one accepted session frame,
// already re-sealed — all of them under one seal — with the service's
// at-rest storage key (the connection's session key cannot be
// re-derived at recovery, so the original wire frame is useless to
// replay). Under SyncAlways the record is on the platters when the
// call returns.
func (s *Store) AppendSealedReport(epoch uint32, sealed []byte) error {
	return s.append(Record{Type: RecordSealedReport, Epoch: epoch, Payload: sealed})
}

// AppendDrop logs the count reports of one dropped frame as a single
// record, so the durable counters replay to the same values the live
// ones held at a cost that does not grow with the frame.
func (s *Store) AppendDrop(epoch uint32, reason byte, count uint32) error {
	if count == 0 {
		return errors.New("store: drop record counting no reports")
	}
	return s.append(Record{Type: RecordDrop, Epoch: epoch, Reason: reason, Count: count})
}

// Commit flushes buffered records to the OS and, under SyncBatch,
// fsyncs them. The service calls it at every batch boundary.
func (s *Store) Commit() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("store: commit after close")
	}
	if err := s.segw.Flush(); err != nil {
		return err
	}
	if s.sync == SyncBatch {
		return s.seg.Sync()
	}
	return nil
}

// Rotate appends the rotation marker sealing epoch sealed (next is the
// opening epoch id, -1 when the ledger refused one), makes the closing
// segment durable regardless of policy, and cuts a fresh segment. The
// marker's durability is what lets a checkpoint-less replay re-derive
// the rotation; fsyncing here also guarantees no record of the new
// epoch can be durable before the marker that separates the epochs.
func (s *Store) Rotate(sealed uint32, next int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("store: rotate after close")
	}
	if err := s.writeRecord(Record{Type: RecordRotate, Epoch: sealed, Next: next}); err != nil {
		return fmt.Errorf("store: append rotate marker: %w", err)
	}
	if err := s.segw.Flush(); err != nil {
		return err
	}
	if err := s.seg.Sync(); err != nil {
		return err
	}
	if err := s.seg.Close(); err != nil {
		return err
	}
	epoch := uint64(sealed) + 1
	if next >= 0 {
		epoch = uint64(next)
	}
	return s.openSegment(s.segIndex+1, epoch)
}

// WriteCheckpoint makes cp durable (write-to-temp, fsync, atomic
// rename, fsync directory) and then prunes: older checkpoints are
// deleted, and every WAL segment created before cp.OpenEpoch opened is
// covered by the checkpoint and deleted too. The disk writes run
// outside the append mutex — the readers' WAL appends (the ingest
// hot path) must not stall behind a checkpoint fsync — and ckptMu
// serializes concurrent checkpoint writers (the service additionally
// orders them under its rotation lock).
func (s *Store) WriteCheckpoint(cp *Checkpoint) error {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("store: checkpoint after close")
	}
	cp.Meta = s.meta
	var index uint64 = 1
	if n := len(s.ckpts); n > 0 {
		index = s.ckpts[n-1] + 1
	}
	s.mu.Unlock()

	blob, err := encodeCheckpoint(cp)
	if err != nil {
		return err
	}
	path := ckptPath(s.dir, index)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: write checkpoint: %w", err)
	}
	if _, err := f.Write(blob); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	syncDir(s.dir)

	// Prune: the new checkpoint supersedes every older one, and every
	// segment whose records all predate the open epoch.
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, old := range s.ckpts {
		os.Remove(ckptPath(s.dir, old))
	}
	s.ckpts = []uint64{index}
	for idx, epoch := range s.segEpochs {
		if idx != s.segIndex && epoch < uint64(cp.OpenEpoch) {
			os.Remove(segmentPath(s.dir, idx))
			delete(s.segEpochs, idx)
		}
	}
	return nil
}

// Close flushes and closes the WAL. The final flush is best-effort
// durability; checkpoints are the strong handoff.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if err := s.segw.Flush(); err != nil {
		s.seg.Close()
		return err
	}
	if err := s.seg.Sync(); err != nil {
		s.seg.Close()
		return err
	}
	return s.seg.Close()
}

// Abort closes the WAL without flushing buffered records — the
// simulated hard crash of the recovery tests and the durable_monitor
// example: whatever the fsync policy already pushed to the OS
// survives, everything buffered in-process is torn away.
func (s *Store) Abort() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	s.seg.Close()
}

// syncDir fsyncs a directory so renames and creations inside it are
// durable. Best-effort: some platforms refuse directory fsync, and the
// tail-truncation replay rule tolerates the resulting windows.
func syncDir(dir string) {
	if f, err := os.Open(dir); err == nil {
		f.Sync()
		f.Close()
	}
}
