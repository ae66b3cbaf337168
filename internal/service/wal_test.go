package service_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"shuffledp/internal/ecies"
	"shuffledp/internal/ldp"
	"shuffledp/internal/service"
	"shuffledp/internal/store"
)

// The tests in this file read the service's WAL as bytes: the durable
// tier's unit is the accepted session frame — one at-rest seal, one
// record — and what that promises (DESIGN.md §8, §11) is visible on
// disk, not through the API.

// WAL framing, as DESIGN.md §8 lays it out: a 13-byte segment header,
// then records of 4-byte big-endian length, payload, 4-byte CRC32C. A
// sealed-report payload is type(1) + epoch(4) + nonce(12) + plaintext +
// tag(16), the plaintext a frame's B-bit reports packed bit after bit.
const (
	walHeaderLen = 13
	sealedExtra  = 5 + ecies.StorageOverhead
)

// walRecord is one record of a segment, located by its bytes.
type walRecord struct {
	off, end int // the record's first byte and the first byte after it
	typ      byte
	epoch    uint32
	reports  int // for a sealed-report record, how many reports it holds
}

// walkSegment cuts a whole (untorn) segment into its records, of
// reports packed reportBits bits each.
func walkSegment(t *testing.T, seg []byte, reportBits int) []walRecord {
	t.Helper()
	if len(seg) < walHeaderLen || string(seg[:4]) != "SDPW" {
		t.Fatalf("segment of %d bytes has no header", len(seg))
	}
	var recs []walRecord
	for off := walHeaderLen; off < len(seg); {
		if off+4 > len(seg) {
			t.Fatalf("segment torn in a length prefix at %d", off)
		}
		n := int(binary.BigEndian.Uint32(seg[off:]))
		end := off + 4 + n + 4
		if n < 5 || end > len(seg) {
			t.Fatalf("segment torn inside the record at %d", off)
		}
		payload := seg[off+4 : off+4+n]
		r := walRecord{off: off, end: end, typ: payload[0], epoch: binary.LittleEndian.Uint32(payload[1:])}
		if r.typ == store.RecordSealedReport {
			r.reports = 8 * (n - sealedExtra) / reportBits
		}
		recs = append(recs, r)
		off = end
	}
	return recs
}

// newestSegment returns the path of the highest-numbered WAL segment
// under dir — the one the store is appending to.
func newestSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segment under %s: %v", dir, err)
	}
	sort.Strings(segs)
	return segs[len(segs)-1]
}

// epochWAL is the durable state one epoch of an uninterrupted run left
// behind while it was open: the checkpoint in force (nil for epoch 0)
// and the epoch's whole segment, rotation marker included.
type epochWAL struct {
	ckptName, segName string
	ckpt, seg         []byte
}

// captureWAL runs the world's workload uninterrupted on a durable
// service and returns each epoch's WAL. A sealing checkpoint prunes the
// epoch's segment the moment it is durable, so each segment is kept by
// a hard link taken before the rotation that ends it.
func (w *recoveryWorld) captureWAL(t *testing.T, ref *recoveryReference) []epochWAL {
	t.Helper()
	dir, keep := t.TempDir(), t.TempDir()
	ledger := w.ledger(t)
	svc, err := service.New(w.config(ledger, dir, store.SyncNone))
	if err != nil {
		t.Fatal(err)
	}
	epochs := make([]epochWAL, len(w.bounds)+1)
	hold := func(k int) {
		seg := newestSegment(t, dir)
		epochs[k].segName = filepath.Base(seg)
		if err := os.Link(seg, filepath.Join(keep, epochs[k].segName)); err != nil {
			t.Fatal(err)
		}
	}
	sent := 0
	for k, b := range w.bounds {
		w.send(t, svc, sent, b)
		sent = b
		hold(k)
		if _, err := svc.Rotate(); err != nil {
			t.Fatal(err)
		}
		cks, err := filepath.Glob(filepath.Join(dir, "ckpt-*.snap"))
		if err != nil || len(cks) != 1 {
			t.Fatalf("after sealing epoch %d the directory holds checkpoints %v (%v), want exactly one", k, cks, err)
		}
		epochs[k+1].ckptName = filepath.Base(cks[0])
		if epochs[k+1].ckpt, err = os.ReadFile(cks[0]); err != nil {
			t.Fatal(err)
		}
	}
	w.send(t, svc, sent, len(w.reports))
	hold(len(w.bounds))
	snap, err := svc.Drain()
	if err != nil {
		t.Fatal(err)
	}
	ref.same(t, svc, snap, ledger)
	for k := range epochs {
		if epochs[k].seg, err = os.ReadFile(filepath.Join(keep, epochs[k].segName)); err != nil {
			t.Fatal(err)
		}
	}
	return epochs
}

// stage writes the directory a crash would have left: the checkpoint in
// force and the open epoch's segment as far as it got.
func (e *epochWAL) stage(t *testing.T, seg []byte) string {
	t.Helper()
	dir := t.TempDir()
	if e.ckpt != nil {
		if err := os.WriteFile(filepath.Join(dir, e.ckptName), e.ckpt, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, e.segName), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestRecoverEveryWALCut enumerates the crash points of a three-epoch
// durable run instead of sampling them. With frames as records the WAL
// is a dozen-odd records long, so every cut is affordable: at every
// record boundary, inside every record's length prefix, payload and CRC
// trailer, inside the segment header, and with a whole-length record
// whose last byte rotted, the directory is staged as the crash would
// have left it, recovered, and the stream resumed from the recovered
// Received count. Named invariants, at every cut:
//
//   - Received recovers to exactly the reports of the whole records
//     before the cut — a frame boundary, never inside a frame;
//   - one record, one epoch: every record of an epoch's segment carries
//     that epoch's id, the marker is its last record;
//   - window, history, all-time estimate and ledger end bit-identical to
//     the uninterrupted run, with exactly one charge per sealed epoch.
//
// The cases cover client frames of 1 (the record-per-report WAL older
// builds wrote), 7, 50 and 256 reports, the last one larger than the
// shuffle batch: one record, several batches.
func TestRecoverEveryWALCut(t *testing.T) {
	cases := []struct {
		name                string
		n, frame, batchSize int
	}{
		{"frame50", 600, 50, 128},
		{"frame1", 36, 1, 8},
		{"frame7", 150, 7, 16},
		{"frame256-spans-batches", 1800, 256, 64},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			w := newRecoveryWorldOf(t, tc.n, tc.frame, tc.batchSize)
			ref := w.reference(t)
			codec, err := service.NewCodec(w.fo)
			if err != nil {
				t.Fatal(err)
			}
			before, recoveries := 0, 0 // reports sealed into earlier epochs
			for k, ep := range w.captureWAL(t, ref) {
				recs := walkSegment(t, ep.seg, codec.Bits())
				frames := recs
				if k < len(w.bounds) {
					if last := recs[len(recs)-1]; last.typ != store.RecordRotate {
						t.Fatalf("epoch %d's segment ends in a type-%d record, not its rotation marker", k, last.typ)
					}
					frames = recs[:len(recs)-1]
				}
				perEpoch := 0
				for _, r := range frames {
					if r.typ != store.RecordSealedReport || r.epoch != uint32(k) {
						t.Fatalf("epoch %d's segment holds a type-%d record for epoch %d", k, r.typ, r.epoch)
					}
					if r.reports < 1 || r.reports > tc.frame {
						t.Fatalf("a record of epoch %d holds %d reports, client frames carry at most %d", k, r.reports, tc.frame)
					}
					perEpoch += r.reports
				}
				if wantFrames := (perEpoch + tc.frame - 1) / tc.frame; len(frames) != wantFrames {
					t.Fatalf("epoch %d logged its %d reports in %d records, want one per frame: %d", k, perEpoch, len(frames), wantFrames)
				}

				// A cut is a prefix of the segment, perhaps with its
				// last byte rotted; whole counts the records that
				// survive it.
				type cut struct {
					at, whole int
					rot       bool
				}
				cuts := []cut{{at: 0}, {at: walHeaderLen / 2}, {at: walHeaderLen}}
				for i, r := range recs {
					cuts = append(cuts,
						cut{at: r.off + 2, whole: i},
						cut{at: (r.off + 4 + r.end - 4) / 2, whole: i},
						cut{at: r.end - 2, whole: i},
						cut{at: r.end, whole: i, rot: true},
						cut{at: r.end, whole: i + 1})
				}
				for _, c := range cuts {
					seg := append([]byte(nil), ep.seg[:c.at]...)
					if c.rot {
						seg[len(seg)-1] ^= 0x40
					}
					what := fmt.Sprintf("epoch %d cut at byte %d of %d (rot %v)", k, c.at, len(ep.seg), c.rot)
					ledger := w.ledger(t)
					svc, err := service.Recover(w.config(ledger, ep.stage(t, seg), store.SyncNone))
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					recoveries++
					want, wantEpoch := before, k
					for _, r := range recs[:c.whole] {
						want += r.reports
						if r.typ == store.RecordRotate {
							wantEpoch = k + 1
						}
					}
					snap := svc.Snapshot()
					if snap.Received != int64(want) || snap.Late != 0 || snap.Rejected != 0 {
						t.Fatalf("%s: recovered Received/Late/Rejected = %d/%d/%d, want %d/0/0 — the last whole frame",
							what, snap.Received, snap.Late, snap.Rejected, want)
					}
					if svc.Epoch() != wantEpoch || len(svc.History()) != wantEpoch {
						t.Fatalf("%s: recovered into epoch %d with %d sealed, want epoch %d", what, svc.Epoch(), len(svc.History()), wantEpoch)
					}
					// Epoch 0 at New plus one charge per epoch opened since.
					if got := w.epochsPaid(t, ledger); got != wantEpoch+1 {
						t.Fatalf("%s: recovered ledger holds %d charges, want %d", what, got, wantEpoch+1)
					}
					ref.same(t, svc, w.run(t, svc), ledger)
				}
				before += perEpoch
			}
			t.Logf("%d recoveries", recoveries)
		})
	}
}

// A sealed record is one canonically packed frame of at least one
// report: ⌈nB/8⌉ bytes, zero pad bits. Anything else was not written
// by the batch stage; Recover refuses it with an error that says so and
// never skips it — a skipped record would silently shrink the epoch.
func TestRecoverRefusesRaggedSealedRecord(t *testing.T) {
	w := newRecoveryWorld(t)
	sealer, err := ecies.NewStorageSealer(w.key)
	if err != nil {
		t.Fatal(err)
	}
	codec, err := service.NewCodec(w.fo)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := codec.PackFrame(w.reports[:4])
	if err != nil {
		t.Fatal(err)
	}
	if 4*codec.Bits()%8 == 0 {
		t.Fatalf("%d-bit reports leave no pad bits in a frame of 4", codec.Bits())
	}
	for _, tc := range []struct {
		name string
		cut  func(frame []byte) []byte
	}{
		{"empty", func([]byte) []byte { return nil }},
		{"ragged-tail", func(b []byte) []byte { return b[:len(b)-3] }},
		{"short-of-one-report", func(b []byte) []byte { return b[:(codec.Bits()+7)/8-1] }},
		{"spare-trailing-byte", func(b []byte) []byte { return append(b, 0) }},
		{"nonzero-pad-bit", func(b []byte) []byte { b[len(b)-1] |= 0x80; return b }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			logged := 0
			w.stageInterruptedRotation(t, dir, 4, 1, func(st *store.Store, payload []byte) error {
				// Three good one-report records, then the four reports'
				// frame the case mangles.
				if logged++; logged < 4 {
					return st.AppendSealedReport(0, sealer.Seal(nil, payload))
				}
				return st.AppendSealedReport(0, sealer.Seal(nil, tc.cut(bytes.Clone(frame))))
			})
			svc, err := service.Recover(w.config(w.ledger(t), dir, store.SyncBatch))
			if err == nil {
				svc.Close()
				t.Fatal("Recover accepted a sealed record that is not a packed frame of reports")
			}
			if !strings.Contains(err.Error(), fmt.Sprintf("%d-bit reports", codec.Bits())) {
				t.Fatalf("Recover error %q does not name the malformed record", err)
			}
		})
	}
}

// TestParentWALIsRefused stages the data directory a build that padded
// word reports to 8 bytes would leave — format-1 segment header, one
// sealed frame of five 8-byte reports — and recovers it. Forty bytes cut
// evenly into eight 5-byte records, so the only thing standing between
// the old layout and a misparsed epoch is the format version: Recover
// must fail with store.ErrOldVersion, load nothing, and leave the
// segment as it found it.
func TestParentWALIsRefused(t *testing.T) {
	const parentFormatVersion = 1
	w := newRecoveryWorld(t)
	dir := t.TempDir()
	sealer, err := ecies.NewStorageSealer(w.key)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := ldp.NewWordEncoder(w.fo)
	if err != nil {
		t.Fatal(err)
	}
	var padded []byte
	for _, rep := range w.reports[:5] {
		padded = binary.LittleEndian.AppendUint64(padded, enc.Encode(rep))
	}
	st, err := store.Create(dir, store.Meta{Oracle: w.fo.Name(), Domain: w.fo.Domain()}, store.SyncBatch)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AppendSealedReport(0, sealer.Seal(nil, padded)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	path := newestSegment(t, dir)
	seg, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	seg[len("SDPW")] = parentFormatVersion
	if err := os.WriteFile(path, seg, 0o644); err != nil {
		t.Fatal(err)
	}

	svc, err := service.Recover(w.config(w.ledger(t), dir, store.SyncBatch))
	if err == nil {
		snap := svc.Snapshot()
		svc.Close()
		t.Fatalf("Recover loaded a format-%d WAL: %d reports received", parentFormatVersion, snap.Received)
	}
	if !errors.Is(err, store.ErrOldVersion) {
		t.Fatalf("Recover error %v, want store.ErrOldVersion", err)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, seg) {
		t.Fatalf("the refused segment changed on disk (%v)", err)
	}
}

// TestParentCheckpointIsRefused stages the checkpoint a build that
// stored the ledger's charge count would leave — format 2, the count's
// 8 bytes after the two flags, a valid checksum — and recovers it. The
// count is gone from the format because recovery now works out what was
// paid from what was sealed; reading the old layout would shift every
// later field by 8 bytes, so Recover must fail with store.ErrOldVersion,
// load nothing, and leave the checkpoint as it found it.
func TestParentCheckpointIsRefused(t *testing.T) {
	const parentFormatVersion = 2
	w := newRecoveryWorld(t)
	dir := t.TempDir()
	svc, err := service.New(w.config(w.ledger(t), dir, store.SyncBatch))
	if err != nil {
		t.Fatal(err)
	}
	w.send(t, svc, 0, 100)
	if _, err := svc.Drain(); err != nil {
		t.Fatal(err)
	}
	cks, err := filepath.Glob(filepath.Join(dir, "*.snap"))
	if err != nil || len(cks) != 1 {
		t.Fatalf("want the drain's one checkpoint, found %v (%v)", cks, err)
	}
	cur, err := os.ReadFile(cks[0])
	if err != nil {
		t.Fatal(err)
	}
	// magic(4) version(1) name(2 + len) domain(8) open epoch(8)
	// exhausted(1) open charged(1), then the parent's ledger count.
	flagsEnd := 5 + 2 + int(binary.LittleEndian.Uint16(cur[5:])) + 8 + 8 + 2
	old := append([]byte(nil), cur[:flagsEnd]...)
	old[4] = parentFormatVersion
	old = binary.LittleEndian.AppendUint64(old, 1)
	old = append(old, cur[flagsEnd:len(cur)-4]...)
	old = binary.LittleEndian.AppendUint32(old, crc32.Checksum(old, crc32.MakeTable(crc32.Castagnoli)))
	if err := os.WriteFile(cks[0], old, 0o644); err != nil {
		t.Fatal(err)
	}

	svc, err = service.Recover(w.config(w.ledger(t), dir, store.SyncBatch))
	if err == nil {
		snap := svc.Snapshot()
		svc.Close()
		t.Fatalf("Recover loaded a format-%d checkpoint: %d reports received", parentFormatVersion, snap.Received)
	}
	if !errors.Is(err, store.ErrOldVersion) {
		t.Fatalf("Recover error %v, want store.ErrOldVersion", err)
	}
	if after, err := os.ReadFile(cks[0]); err != nil || !bytes.Equal(after, old) {
		t.Fatalf("the refused checkpoint changed on disk (%v)", err)
	}
}

// TestFormat3DirectoryIsRefused stages the data directory the build
// before format 4 left after one sealed epoch: a format-3 checkpoint
// holding epoch 0's root beside an all-time aggregate of the same
// reports, and a format-3 segment holding one sealed frame of epoch 1.
// The layout reads the same in both formats; only the version tells a
// reader whether the all-time blob is the service's estimate. So
// Recover must fail with store.ErrOldVersion, load nothing, and leave
// every file as it found it.
func TestFormat3DirectoryIsRefused(t *testing.T) {
	const parentFormatVersion = 3
	w := newRecoveryWorld(t)
	dir := t.TempDir()
	codec, err := service.NewCodec(w.fo)
	if err != nil {
		t.Fatal(err)
	}
	sealer, err := ecies.NewStorageSealer(w.key)
	if err != nil {
		t.Fatal(err)
	}
	agg := w.fo.NewAggregator()
	for _, rep := range w.reports[:100] {
		agg.Add(rep)
	}
	root, err := agg.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var frame []byte
	for _, rep := range w.reports[100:110] {
		if frame, err = codec.AppendMarshal(frame, rep); err != nil {
			t.Fatal(err)
		}
	}
	st, err := store.Create(dir, store.Meta{Oracle: w.fo.Name(), Domain: w.fo.Domain()}, store.SyncBatch)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Rotate(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := st.WriteCheckpoint(&store.Checkpoint{
		OpenEpoch: 1, OpenCharged: true, Received: 100, Batches: 1,
		AllTime: root,
		History: []store.EpochCheckpoint{{
			Epoch: 0, Reports: 100, Batches: 1,
			Guarantee: w.ledger(t).PerEpoch(),
			Root:      root,
		}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendSealedReport(1, sealer.Seal(nil, frame)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Stamp every file with the parent's version: a segment's version
	// byte is outside its records' checksums, a checkpoint's is inside
	// its trailer's.
	names, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil || len(names) != 2 {
		t.Fatalf("want one checkpoint and one segment, found %v (%v)", names, err)
	}
	before := map[string][]byte{}
	for _, name := range names {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		b[4] = parentFormatVersion
		if strings.HasSuffix(name, ".snap") {
			body := b[:len(b)-4]
			binary.LittleEndian.PutUint32(b[len(body):], crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
		}
		if err := os.WriteFile(name, b, 0o644); err != nil {
			t.Fatal(err)
		}
		before[name] = b
	}

	svc, err := service.Recover(w.config(w.ledger(t), dir, store.SyncBatch))
	if err == nil {
		snap := svc.Snapshot()
		hist := len(svc.History())
		svc.Close()
		t.Fatalf("Recover loaded a format-%d directory: %d epochs sealed, %d reports received", parentFormatVersion, hist, snap.Received)
	}
	if !errors.Is(err, store.ErrOldVersion) {
		t.Fatalf("Recover error %v, want store.ErrOldVersion", err)
	}
	after, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil || len(after) != len(names) {
		t.Fatalf("the refused directory holds %v, want %v (%v)", after, names, err)
	}
	for name, b := range before {
		if got, err := os.ReadFile(name); err != nil || !bytes.Equal(got, b) {
			t.Fatalf("the refused directory's %s changed on disk (%v)", filepath.Base(name), err)
		}
	}
}

// TestFormat4DirectoryIsRefused stages the data directory the build
// before format 5 left: a format-4 segment holding one sealed frame of
// seven reports in 5-byte records — 35 bytes, which would unpack as a
// canonical frame of eight 35-bit reports, every one inside SOLH(32,
// 8)'s 2^35 group. Only the version tells a reader which layout a
// record holds, so Recover must fail with store.ErrOldVersion, load
// nothing, and leave the segment as it found it.
func TestFormat4DirectoryIsRefused(t *testing.T) {
	const parentFormatVersion = 4
	w := newRecoveryWorld(t)
	dir := t.TempDir()
	codec, err := service.NewCodec(w.fo)
	if err != nil {
		t.Fatal(err)
	}
	if codec.Bits() != 35 || codec.Size() != 5 {
		t.Fatalf("SOLH(32, 8) reports take %d bits and %d bytes, want 35 and 5", codec.Bits(), codec.Size())
	}
	sealer, err := ecies.NewStorageSealer(w.key)
	if err != nil {
		t.Fatal(err)
	}
	var records []byte
	for _, rep := range w.reports[:7] {
		if records, err = codec.AppendMarshal(records, rep); err != nil {
			t.Fatal(err)
		}
	}
	st, err := store.Create(dir, store.Meta{Oracle: w.fo.Name(), Domain: w.fo.Domain()}, store.SyncBatch)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AppendSealedReport(0, sealer.Seal(nil, records)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	path := newestSegment(t, dir)
	seg, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	seg[len("SDPW")] = parentFormatVersion
	if err := os.WriteFile(path, seg, 0o644); err != nil {
		t.Fatal(err)
	}

	svc, err := service.Recover(w.config(w.ledger(t), dir, store.SyncBatch))
	if err == nil {
		snap := svc.Snapshot()
		svc.Close()
		t.Fatalf("Recover loaded a format-%d WAL: %d reports received", parentFormatVersion, snap.Received)
	}
	if !errors.Is(err, store.ErrOldVersion) {
		t.Fatalf("Recover error %v, want store.ErrOldVersion", err)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, seg) {
		t.Fatalf("the refused segment changed on disk (%v)", err)
	}
}

// TestLateFrameIsOneWALRecord is the amplification bound: a frame that
// asserts a closed epoch costs the WAL one counted drop record, however
// many reports it carried — not one record per report — and the count
// survives a crash.
func TestLateFrameIsOneWALRecord(t *testing.T) {
	const late = 4096
	w := newRecoveryWorld(t)
	dir := t.TempDir()
	cfg := w.config(nil, dir, store.SyncBatch)
	svc, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w.send(t, svc, 0, 100)
	if _, err := svc.Rotate(); err != nil {
		t.Fatal(err)
	}

	// One authentic frame of 4096 reports, stamped with the epoch just
	// sealed.
	clientSide, serverSide := net.Pipe()
	if err := svc.Ingest(serverSide); err != nil {
		t.Fatal(err)
	}
	cl, err := service.NewSessionClient(w.fo, w.key.Public(), nil, clientSide, late)
	if err != nil {
		t.Fatal(err)
	}
	cl.SetEpoch(0)
	for i := 0; i < late; i++ {
		if err := cl.SendReport(w.reports[i%len(w.reports)]); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	waitSnapshot(t, svc, "late reports", late, func(s service.Snapshot) int64 { return s.Late })
	// A full shuffle batch into the open epoch behind it: its flush
	// commits the WAL, drop record included.
	w.frame = w.batchSize
	w.send(t, svc, 100, 100+w.batchSize)
	waitBatches(t, svc, 2)
	svc.Crash()

	seg, err := os.ReadFile(newestSegment(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	codec, err := service.NewCodec(w.fo)
	if err != nil {
		t.Fatal(err)
	}
	recs := walkSegment(t, seg, codec.Bits())
	if len(recs) != 2 || recs[0].typ != store.RecordDrop || recs[1].typ != store.RecordSealedReport {
		t.Fatalf("the late frame and the batch behind it left %d records (%+v), want one drop and one sealed frame", len(recs), recs)
	}
	if grew := recs[0].end - recs[0].off; grew != 4+10+4 {
		t.Fatalf("the late frame of %d reports grew the segment by %d bytes, want one 18-byte counted drop", late, grew)
	}

	rec, err := service.Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if snap := rec.Snapshot(); snap.Late != late || snap.Received != int64(100+w.batchSize) {
		t.Fatalf("recovered Late/Received = %d/%d, want %d/%d", snap.Late, snap.Received, late, 100+w.batchSize)
	}
}

// waitBatches blocks until the service has forwarded n shuffled batches
// — each preceded by a WAL commit.
func waitBatches(t *testing.T, svc *service.Service, n int64) {
	t.Helper()
	waitSnapshot(t, svc, "forwarded batches", n, func(s service.Snapshot) int64 { return s.Batches })
}

// TestWALBytesPerReport pins what the durable tier writes: after 81 920
// SOLH(1024, 16) reports at the default client batch the segment holds
// its 13-byte header and one sealed record per frame of 2048 36-bit
// reports packed bit after bit — ⌈2048·36/8⌉ = 9216 plaintext bytes, 28
// of at-rest seal, 5 of record header, 8 of framing — so (9216 + 28 + 5
// + 8) / 2048 = 4.52 bytes per report; 256-report frames were 4.66,
// reports rounded up to 5 bytes 5.16, 8-byte padded reports 8.16 and a
// record per report 49. A
// later change cannot quietly go back to padding reports or logging
// them one by one. It also scans the segment for every frame's packed
// plaintext: the WAL never holds a plaintext report.
func TestWALBytesPerReport(t *testing.T) {
	const (
		frame  = service.DefaultClientBatch
		n      = 40 * frame
		record = frame*36/8 + ecies.StorageOverhead + 5 + 8
	)
	fo := ldp.NewSOLH(1024, 16, 3)
	values := make([]int, n)
	for i := range values {
		values[i] = (i * 31) % 1024
	}
	reports := ldp.RandomizeParallel(fo, values, 7, 0)
	key, err := ecies.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	svc, err := service.New(service.Config{FO: fo, Key: key, DataDir: dir, Sync: store.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	sendSession(t, svc, fo, key, reports)
	// n fills whole batches, and a frame is logged before its words
	// are batched, so the last batch cut means every frame is logged.
	// An orderly stop then flushes the WAL without sealing, so the open
	// epoch's segment is all there and nothing has pruned it.
	waitBatches(t, svc, n/service.DefaultBatchSize)
	svc.Close()

	seg, err := os.ReadFile(newestSegment(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	codec, err := service.NewCodec(fo)
	if err != nil {
		t.Fatal(err)
	}
	if codec.Bits() != 36 {
		t.Fatalf("SOLH(1024, 16) reports are %d bits, want 36", codec.Bits())
	}
	recs := walkSegment(t, seg, codec.Bits())
	if len(recs) != n/frame {
		t.Fatalf("%d reports in frames of %d left %d WAL records, want one per frame", n, frame, len(recs))
	}
	for _, r := range recs {
		if r.typ != store.RecordSealedReport || r.reports != frame || r.end-r.off != record {
			t.Fatalf("WAL record %+v is not one sealed frame of %d reports in %d bytes", r, frame, record)
		}
	}
	perReport := float64(len(seg)) / n
	t.Logf("%.4f WAL bytes per report", perReport)
	if len(seg) != walHeaderLen+n/frame*record {
		t.Fatalf("the segment holds %d bytes, want %d + %d records of %d", len(seg), walHeaderLen, n/frame, record)
	}

	for f := 0; f < n/frame; f++ {
		pt, err := codec.PackFrame(reports[f*frame : (f+1)*frame])
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off+16 <= len(pt); off += 16 {
			if at := bytes.Index(seg, pt[off:off+16]); at >= 0 {
				t.Fatalf("frame %d's plaintext bytes %d–%d sit in the clear at segment byte %d", f, off, off+16, at)
			}
		}
	}
}
