package store

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"shuffledp/internal/composition"
	"shuffledp/internal/transport"
)

var testMeta = Meta{Oracle: "SOLH", Domain: 64}

func mustCreate(t *testing.T, dir string, sync SyncPolicy) *Store {
	t.Helper()
	st, err := Create(dir, testMeta, sync)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// The WAL record codec is an identity round trip for every record
// type.
func TestRecordRoundTrip(t *testing.T) {
	recs := []Record{
		{Type: RecordSealedReport, Epoch: 9, Payload: []byte("sealed storage record")},
		{Type: RecordSealedReport, Epoch: 0, Payload: nil},
		{Type: RecordDrop, Epoch: 7, Reason: DropLate, Count: 1},
		{Type: RecordDrop, Epoch: 7, Reason: DropRejected, Count: 1},
		{Type: RecordDrop, Epoch: 7, Reason: DropLate, Count: 4096},
		{Type: RecordDrop, Epoch: 0, Reason: DropRejected, Count: math.MaxUint32},
		{Type: RecordRotate, Epoch: 2, Next: 3},
		{Type: RecordRotate, Epoch: 5, Next: -1},
	}
	for _, want := range recs {
		got, err := decodeRecord(appendRecord(nil, want))
		if err != nil {
			t.Fatalf("decode(%+v): %v", want, err)
		}
		if got.Type != want.Type || got.Epoch != want.Epoch || got.Next != want.Next ||
			got.Reason != want.Reason || got.Count != want.Count || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("round trip changed %+v -> %+v", want, got)
		}
	}
}

// Create, append, close, Open: the tail replays every record in
// order; Create on the same directory then refuses with ErrExists.
func TestAppendAndRecoverTail(t *testing.T) {
	dir := t.TempDir()
	st := mustCreate(t, dir, SyncBatch)
	for i := 0; i < 10; i++ {
		if err := st.AppendSealedReport(0, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.AppendDrop(0, DropLate, 4096); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendDrop(0, DropLate, 0); err == nil {
		t.Fatal("a drop record counting no reports was appended")
	}
	if err := st.AppendSealedReport(0, []byte("sealed")); err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := Create(dir, testMeta, SyncBatch); !errors.Is(err, ErrExists) {
		t.Fatalf("Create on existing state: err = %v, want ErrExists", err)
	}

	st2, rec, err := Open(dir, testMeta, SyncBatch)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if rec.Checkpoint != nil {
		t.Fatal("no checkpoint was written, but one was recovered")
	}
	if rec.TornTail {
		t.Fatal("clean shutdown reported a torn tail")
	}
	if len(rec.Tail) != 12 {
		t.Fatalf("recovered %d records, want 12", len(rec.Tail))
	}
	for i := 0; i < 10; i++ {
		r := rec.Tail[i]
		if r.Type != RecordSealedReport || r.Epoch != 0 || !bytes.Equal(r.Payload, []byte{byte(i)}) {
			t.Fatalf("record %d replayed as %+v", i, r)
		}
	}
	if r := rec.Tail[10]; r.Type != RecordDrop || r.Reason != DropLate || r.Count != 4096 {
		t.Fatalf("drop record replayed as %+v", r)
	}
	if r := rec.Tail[11]; r.Type != RecordSealedReport || !bytes.Equal(r.Payload, []byte("sealed")) {
		t.Fatalf("sealed report record replayed as %+v", r)
	}
}

// Open on a directory with no state reports ErrNoState (missing and
// empty directories alike).
func TestOpenNoState(t *testing.T) {
	if _, _, err := Open(filepath.Join(t.TempDir(), "missing"), testMeta, SyncBatch); !errors.Is(err, ErrNoState) {
		t.Fatalf("Open(missing dir): %v, want ErrNoState", err)
	}
	if _, _, err := Open(t.TempDir(), testMeta, SyncBatch); !errors.Is(err, ErrNoState) {
		t.Fatalf("Open(empty dir): %v, want ErrNoState", err)
	}
}

func testCheckpoint() *Checkpoint {
	return &Checkpoint{
		Meta:        testMeta,
		OpenEpoch:   2,
		OpenCharged: true,
		Received:    1000, Late: 3, Rejected: 0, Batches: 8,
		AllTime: []byte("alltime-blob"),
		History: []EpochCheckpoint{
			{Epoch: 0, Reports: 500, Batches: 4, Guarantee: composition.Guarantee{Eps: 1, Delta: 1e-9}, Root: []byte("root0")},
			{Epoch: 1, Reports: 500, Batches: 4, Guarantee: composition.Guarantee{Eps: 1, Delta: 1e-9}, Root: []byte("root1")},
		},
	}
}

// The checkpoint codec round-trips every field.
func TestCheckpointRoundTrip(t *testing.T) {
	want := testCheckpoint()
	blob, err := encodeCheckpoint(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeCheckpoint(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta != want.Meta || got.OpenEpoch != want.OpenEpoch || got.Exhausted != want.Exhausted ||
		got.OpenCharged != want.OpenCharged || got.Received != want.Received ||
		got.Late != want.Late || got.Rejected != want.Rejected || got.Batches != want.Batches ||
		!bytes.Equal(got.AllTime, want.AllTime) || len(got.History) != len(want.History) {
		t.Fatalf("round trip changed checkpoint:\n got %+v\nwant %+v", got, want)
	}
	for i := range want.History {
		if got.History[i].Epoch != want.History[i].Epoch || got.History[i].Guarantee != want.History[i].Guarantee ||
			!bytes.Equal(got.History[i].Root, want.History[i].Root) {
			t.Fatalf("history[%d] changed: %+v vs %+v", i, got.History[i], want.History[i])
		}
	}
}

// Rotation cuts a segment; a durable checkpoint prunes the segments
// and checkpoints it supersedes.
func TestCheckpointPrunesSegments(t *testing.T) {
	dir := t.TempDir()
	st := mustCreate(t, dir, SyncBatch)
	for i := 0; i < 5; i++ {
		if err := st.AppendSealedReport(0, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Rotate(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendSealedReport(1, []byte("ep1")); err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	cp := testCheckpoint()
	cp.OpenEpoch = 1
	cp.History = cp.History[:1]
	if err := st.WriteCheckpoint(cp); err != nil {
		t.Fatal(err)
	}
	// A second checkpoint supersedes the first.
	if err := st.WriteCheckpoint(cp); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	segs, cks, err := scanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("%d segments on disk after checkpoint, want 1 (epoch-0 segment pruned)", len(segs))
	}
	if len(cks) != 1 {
		t.Fatalf("%d checkpoints on disk, want 1", len(cks))
	}

	st2, rec, err := Open(dir, testMeta, SyncBatch)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if rec.Checkpoint == nil || rec.Checkpoint.OpenEpoch != 1 {
		t.Fatalf("recovered checkpoint %+v, want open epoch 1", rec.Checkpoint)
	}
	if len(rec.Tail) != 1 || rec.Tail[0].Epoch != 1 || !bytes.Equal(rec.Tail[0].Payload, []byte("ep1")) {
		t.Fatalf("recovered tail %+v, want the single epoch-1 report", rec.Tail)
	}
}

// A crash can tear the final record mid-write: replay keeps every
// whole record, flags the tear, and appending continues in a fresh
// segment.
func TestTornFinalRecord(t *testing.T) {
	for _, cut := range []int{1, 3, 7} {
		dir := t.TempDir()
		st := mustCreate(t, dir, SyncBatch)
		for i := 0; i < 4; i++ {
			if err := st.AppendSealedReport(0, []byte{byte(i), byte(i), byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		segs, _, err := scanDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		path := segs[len(segs)-1].path
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// Cut into the last record (each record is 4+8+4 = 16 bytes).
		if err := os.WriteFile(path, data[:len(data)-cut], 0o644); err != nil {
			t.Fatal(err)
		}

		st2, rec, err := Open(dir, testMeta, SyncBatch)
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		if !rec.TornTail {
			t.Fatalf("cut=%d: torn tail not flagged", cut)
		}
		if len(rec.Tail) != 3 {
			t.Fatalf("cut=%d: recovered %d records, want 3", cut, len(rec.Tail))
		}
		// The store stays appendable after recovering a torn tail.
		if err := st2.AppendSealedReport(0, []byte("after")); err != nil {
			t.Fatal(err)
		}
		if err := st2.Close(); err != nil {
			t.Fatal(err)
		}
		_, rec2, err := Open(dir, testMeta, SyncBatch)
		if err != nil {
			t.Fatal(err)
		}
		if len(rec2.Tail) != 4 {
			t.Fatalf("cut=%d: second recovery got %d records, want 4", cut, len(rec2.Tail))
		}
	}
}

// A corrupted record that is NOT the torn tail — mid-segment, with
// records after it — is corruption and must fail recovery loudly.
func TestMidSegmentCorruptionFails(t *testing.T) {
	dir := t.TempDir()
	st := mustCreate(t, dir, SyncBatch)
	if err := st.AppendSealedReport(0, []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := st.Rotate(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendSealedReport(1, []byte("second")); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _, err := scanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte in the FIRST segment: a later segment
	// exists, so this cannot be a torn tail.
	path := segs[0].path
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-6] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, testMeta, SyncBatch); err == nil {
		t.Fatal("mid-segment corruption recovered silently")
	} else if !errors.Is(err, transport.ErrChecksum) {
		t.Fatalf("corruption surfaced as %v, want a checksum error", err)
	}
}

// A checkpoint stamped with a future format version is refused with
// ErrFutureVersion — clean, no partial load, no checksum complaint.
func TestFutureCheckpointVersion(t *testing.T) {
	dir := t.TempDir()
	st := mustCreate(t, dir, SyncBatch)
	if err := st.WriteCheckpoint(testCheckpoint()); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	_, cks, err := scanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	path := ckptPath(dir, cks[len(cks)-1])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(ckptMagic)] = formatVersion + 5
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, testMeta, SyncBatch); !errors.Is(err, ErrFutureVersion) {
		t.Fatalf("future checkpoint: err = %v, want ErrFutureVersion", err)
	}
}

// A WAL segment from a future format version is refused the same way.
func TestFutureSegmentVersion(t *testing.T) {
	dir := t.TempDir()
	st := mustCreate(t, dir, SyncBatch)
	if err := st.AppendSealedReport(0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := st.Rotate(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _, err := scanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	path := segs[0].path
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(segmentMagic)] = formatVersion + 1
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, testMeta, SyncBatch); !errors.Is(err, ErrFutureVersion) {
		t.Fatalf("future segment: err = %v, want ErrFutureVersion", err)
	}
}

// A checkpoint written under one oracle configuration refuses to load
// under another.
func TestMetaMismatch(t *testing.T) {
	dir := t.TempDir()
	st := mustCreate(t, dir, SyncBatch)
	if err := st.WriteCheckpoint(testCheckpoint()); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Meta{Oracle: "GRR", Domain: 64}, SyncBatch); err == nil {
		t.Fatal("oracle mismatch recovered silently")
	}
	if _, _, err := Open(dir, Meta{Oracle: "SOLH", Domain: 128}, SyncBatch); err == nil {
		t.Fatal("domain mismatch recovered silently")
	}
}

// Abort tears away buffered records (the simulated crash): only what
// a Commit already flushed survives.
func TestAbortLosesUncommitted(t *testing.T) {
	dir := t.TempDir()
	st := mustCreate(t, dir, SyncNone)
	if err := st.AppendSealedReport(0, []byte("durable")); err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendSealedReport(0, []byte("buffered")); err != nil {
		t.Fatal(err)
	}
	st.Abort()

	_, rec, err := Open(dir, testMeta, SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Tail) != 1 || !bytes.Equal(rec.Tail[0].Payload, []byte("durable")) {
		t.Fatalf("recovered %d records after abort, want only the committed one", len(rec.Tail))
	}
}

// Rotation markers replay in order with their epochs intact, and an
// exhausted marker (next = -1) round-trips.
func TestRotateMarkersReplay(t *testing.T) {
	dir := t.TempDir()
	st := mustCreate(t, dir, SyncBatch)
	if err := st.AppendSealedReport(0, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := st.Rotate(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendSealedReport(1, []byte("b")); err != nil {
		t.Fatal(err)
	}
	if err := st.Rotate(1, -1); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec, err := Open(dir, testMeta, SyncBatch)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		typ   byte
		epoch uint32
		next  int64
	}{
		{RecordSealedReport, 0, 0},
		{RecordRotate, 0, 1},
		{RecordSealedReport, 1, 0},
		{RecordRotate, 1, -1},
	}
	if len(rec.Tail) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(rec.Tail), len(want))
	}
	for i, w := range want {
		r := rec.Tail[i]
		if r.Type != w.typ || r.Epoch != w.epoch || (r.Type == RecordRotate && r.Next != w.next) {
			t.Fatalf("record %d: %+v, want %+v", i, r, w)
		}
	}
}

// The sync-policy flag values round-trip through parse/print, and an
// unknown value errors.
func TestSyncPolicyParse(t *testing.T) {
	for _, name := range []string{"always", "batch", "none"} {
		p, err := ParseSyncPolicy(name)
		if err != nil {
			t.Fatalf("ParseSyncPolicy(%q): %v", name, err)
		}
		if p.String() != name {
			t.Fatalf("policy %q prints as %q", name, p.String())
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Fatal("unknown policy parsed")
	}
}

// Malformed record payloads decode to errors, never to panics or to
// records with out-of-range fields.
func TestDecodeRecordRejectsMalformed(t *testing.T) {
	bad := [][]byte{
		nil,
		{},
		{99},                                     // unknown type
		{1, 0, 0, 0, 0, 5},                       // the retired words record
		{RecordSealedReport},                     // truncated epoch
		{RecordDrop, 0, 0, 0, 0, 9},              // unknown drop reason
		{RecordDrop, 0, 0, 0, 0},                 // short drop
		{RecordDrop, 0, 0, 0, 0, DropLate, 2},    // 7 bytes: a count torn after one byte
		{RecordDrop, 0, 0, 0, 0, DropLate, 2, 0}, // 8 bytes
		{RecordDrop, 0, 0, 0, 0, DropLate, 2, 0, 0},                                                         // 9 bytes
		{RecordDrop, 0, 0, 0, 0, DropLate, 2, 0, 0, 0, 0},                                                   // 11 bytes: past the count
		{RecordDrop, 0, 0, 0, 0, DropLate, 0, 0, 0, 0},                                                      // a drop of zero reports
		{RecordDrop, 0, 0, 0, 0, DropRejected, 1, 0, 0, 0},                                                  // one report has one encoding, the 6-byte one
		{RecordDrop, 0, 0, 0, 0, 9, 2, 0, 0, 0},                                                             // counted drop, unknown reason
		{RecordRotate, 0, 0, 0, 0},                                                                          // short rotate
		append([]byte{RecordRotate, 1, 0, 0, 0}, []byte{0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}...), // next = -2
	}
	for _, payload := range bad {
		if _, err := decodeRecord(payload); err == nil {
			t.Errorf("decodeRecord(%v) succeeded", payload)
		}
	}
}

// Truncating a checkpoint at any byte boundary yields an error, never
// a panic or a partially-loaded checkpoint.
func TestCheckpointTruncationNeverPanics(t *testing.T) {
	blob, err := encodeCheckpoint(testCheckpoint())
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(blob); cut++ {
		if _, err := decodeCheckpoint(blob[:cut]); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded successfully", cut, len(blob))
		}
	}
	// Flipping any single body byte must fail the CRC (or a stricter
	// field check).
	for _, i := range []int{0, 5, 20, len(blob) / 2, len(blob) - 5} {
		mut := append([]byte(nil), blob...)
		mut[i] ^= 0x40
		if _, err := decodeCheckpoint(mut); err == nil {
			t.Fatalf("bit flip at %d decoded successfully", i)
		}
	}
}

// The store keeps the directory it was opened on, and appends after
// Close fail cleanly.
func TestStoreClosedAndDir(t *testing.T) {
	dir := t.TempDir()
	st := mustCreate(t, dir, SyncAlways)
	if st.dir != dir {
		t.Fatalf("dir = %q, want %q", st.dir, dir)
	}
	if err := st.AppendSealedReport(0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendSealedReport(0, []byte("y")); err == nil {
		t.Fatal("append after close succeeded")
	}
	if err := st.Commit(); err == nil {
		t.Fatal("commit after close succeeded")
	}
	if err := st.Rotate(0, 1); err == nil {
		t.Fatal("rotate after close succeeded")
	}
	if err := st.WriteCheckpoint(testCheckpoint()); err == nil {
		t.Fatal("checkpoint after close succeeded")
	}
	if err := st.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	st.Abort() // no-op after close
}

// A corrupt length prefix in the final record — the tear landing one
// field earlier than the payload — must recover by truncation like
// any other torn tail, not brick the directory.
func TestTornFinalRecordCorruptLength(t *testing.T) {
	dir := t.TempDir()
	st := mustCreate(t, dir, SyncBatch)
	for i := 0; i < 3; i++ {
		if err := st.AppendSealedReport(0, []byte{byte(i), byte(i), byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _, err := scanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	path := segs[len(segs)-1].path
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Each record is 16 bytes; set the high bit of the last record's
	// big-endian length prefix so it claims > MaxFrameSize.
	data[len(data)-16] |= 0x80
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, rec, err := Open(dir, testMeta, SyncBatch)
	if err != nil {
		t.Fatalf("corrupt length prefix bricked recovery: %v", err)
	}
	if !rec.TornTail {
		t.Fatal("corrupt length prefix not flagged as a torn tail")
	}
	if len(rec.Tail) != 2 {
		t.Fatalf("recovered %d records, want the 2 before the tear", len(rec.Tail))
	}
}
