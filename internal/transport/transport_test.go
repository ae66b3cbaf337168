package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestMeterSendAccounting(t *testing.T) {
	var m Meter
	m.Send("alice", "bob", 100)
	m.Send("alice", "carol", 50)
	m.Send("bob", "alice", 10)
	if s := m.Stats("alice"); s.SentBytes != 150 || s.RecvBytes != 10 {
		t.Fatalf("alice stats %+v", s)
	}
	if s := m.Stats("bob"); s.SentBytes != 10 || s.RecvBytes != 100 {
		t.Fatalf("bob stats %+v", s)
	}
	if s := m.Stats("nobody"); s.SentBytes != 0 {
		t.Fatalf("unknown party should be zero: %+v", s)
	}
}

func TestMeterTrack(t *testing.T) {
	var m Meter
	m.Track("worker", func() { time.Sleep(10 * time.Millisecond) })
	if cpu := m.Stats("worker").CPU; cpu < 5*time.Millisecond {
		t.Fatalf("tracked CPU %v too small", cpu)
	}
	m.AddCPU("worker", time.Second)
	if cpu := m.Stats("worker").CPU; cpu < time.Second {
		t.Fatalf("AddCPU not applied: %v", cpu)
	}
}

func TestMeterNilSafe(t *testing.T) {
	var m *Meter
	m.Send("a", "b", 1) // must not panic
	ran := false
	m.Track("a", func() { ran = true })
	if !ran {
		t.Fatal("nil meter should still run fn")
	}
	if m.Parties() != nil {
		t.Fatal("nil meter parties should be nil")
	}
	if m.String() != "" {
		t.Fatal("nil meter String should be empty")
	}
}

func TestMeterPartiesSorted(t *testing.T) {
	var m Meter
	m.Send("zeta", "alpha", 1)
	got := m.Parties()
	if len(got) != 2 || got[0] != "alpha" || got[1] != "zeta" {
		t.Fatalf("Parties = %v", got)
	}
	if !strings.Contains(m.String(), "alpha") {
		t.Fatal("String missing party")
	}
}

func TestMeterConcurrent(t *testing.T) {
	var m Meter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				m.Send("a", "b", 1)
			}
		}()
	}
	wg.Wait()
	if s := m.Stats("a"); s.SentBytes != 8000 {
		t.Fatalf("lost updates: %d", s.SentBytes)
	}
}

// TestMeterConcurrentNoLostCounts hammers every mutating entry point
// from many goroutines — the access pattern of the streaming service,
// where each connection reader, the shuffler, and every worker accounts
// concurrently — while readers poll. All totals must be exact.
func TestMeterConcurrentNoLostCounts(t *testing.T) {
	const (
		goroutines = 16
		iters      = 2000
	)
	var m Meter
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Concurrent readers: must not perturb any count.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = m.Stats("user")
					_ = m.Parties()
					_ = m.String()
				}
			}
		}()
	}
	var writers sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		writers.Add(1)
		go func(id int) {
			defer writers.Done()
			for j := 0; j < iters; j++ {
				m.Send("user", "shuffler", 3)
				m.Send("shuffler", "server", 5)
				m.AddCPU("server", 7*time.Nanosecond)
				if j%500 == 0 {
					m.Track("server", func() {})
				}
			}
		}(i)
	}
	writers.Wait()
	close(stop)
	wg.Wait()

	if s := m.Stats("user"); s.SentBytes != goroutines*iters*3 {
		t.Errorf("user sent %d, want %d", s.SentBytes, goroutines*iters*3)
	}
	if s := m.Stats("shuffler"); s.RecvBytes != goroutines*iters*3 || s.SentBytes != goroutines*iters*5 {
		t.Errorf("shuffler stats %+v", s)
	}
	s := m.Stats("server")
	if s.RecvBytes != goroutines*iters*5 {
		t.Errorf("server recv %d, want %d", s.RecvBytes, goroutines*iters*5)
	}
	if s.CPU < goroutines*iters*7*time.Nanosecond {
		t.Errorf("server CPU %v lost AddCPU increments", s.CPU)
	}
}

func TestTaggedFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	frames := []struct {
		tag     uint32
		payload []byte
	}{
		{0, []byte{}},
		{7, []byte("epoch seven")},
		{^uint32(0), bytes.Repeat([]byte{3}, 100000)}, // sentinel tag, multi-chunk payload
	}
	for _, f := range frames {
		if err := WriteTaggedFrame(&buf, f.tag, f.payload); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range frames {
		tag, got, err := ReadTaggedFrameLimit(&buf, 0)
		if err != nil {
			t.Fatal(err)
		}
		if tag != want.tag {
			t.Fatalf("tag = %d, want %d", tag, want.tag)
		}
		if !bytes.Equal(got, want.payload) {
			t.Fatalf("payload mismatch: %d vs %d bytes", len(got), len(want.payload))
		}
	}
}

func TestReadTaggedFrameRejectsHugeLength(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 1})
	if _, _, err := ReadTaggedFrameLimit(&buf, 0); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestReadTaggedFrameTruncated(t *testing.T) {
	for _, raw := range [][]byte{
		{0, 0, 0, 10},                // header cut mid-tag
		{0, 0, 0, 10, 0, 0, 0, 2, 1}, // claims 10 payload bytes, has 1
	} {
		buf := bytes.NewBuffer(raw)
		if _, _, err := ReadTaggedFrameLimit(buf, 0); err == nil {
			t.Fatalf("truncated tagged frame %v should error", raw)
		}
	}
}

// A per-call limit rejects an over-limit prefix before touching the
// payload, with an error wrapping ErrFrameTooLarge; frames at or
// under the limit pass.
func TestReadTaggedFrameLimit(t *testing.T) {
	var buf bytes.Buffer
	payload := bytes.Repeat([]byte{5}, 100)
	if err := WriteTaggedFrame(&buf, 3, payload); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadTaggedFrameLimit(bytes.NewReader(buf.Bytes()), 99); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("over-limit frame: err = %v, want ErrFrameTooLarge", err)
	}
	tag, got, err := ReadTaggedFrameLimit(bytes.NewReader(buf.Bytes()), 100)
	if err != nil || tag != 3 || !bytes.Equal(got, payload) {
		t.Fatalf("at-limit frame: tag=%d err=%v", tag, err)
	}
	// Limit zero falls back to the defensive ceiling.
	if _, _, err := ReadTaggedFrameLimit(bytes.NewReader(buf.Bytes()), 0); err != nil {
		t.Fatalf("zero limit: %v", err)
	}
	// The rejection consumes only the header: the reader's payload is
	// untouched, so a caller that wants to resync could skip it.
	r := bytes.NewReader(buf.Bytes())
	_, _, _ = ReadTaggedFrameLimit(r, 10)
	if r.Len() != len(payload) {
		t.Fatalf("rejection consumed payload bytes: %d left, want %d", r.Len(), len(payload))
	}
}

// The reuse form appends into the caller's buffer: once it has grown
// to the working frame size, a steady-state read loop allocates
// nothing per frame, and payload bytes are still exact.
func TestReadTaggedFrameReuse(t *testing.T) {
	var buf bytes.Buffer
	frames := [][]byte{bytes.Repeat([]byte{1}, 300), []byte("short"), bytes.Repeat([]byte{2}, 200_000)}
	for i, p := range frames {
		if err := WriteTaggedFrame(&buf, uint32(i), p); err != nil {
			t.Fatal(err)
		}
	}
	var scratch []byte
	for i, want := range frames {
		tag, got, err := ReadTaggedFrameReuse(&buf, 0, scratch)
		if err != nil {
			t.Fatal(err)
		}
		if tag != uint32(i) || !bytes.Equal(got, want) {
			t.Fatalf("frame %d: tag=%d len=%d", i, tag, len(got))
		}
		scratch = got
	}
	// With a warm buffer of sufficient capacity, the returned payload
	// aliases it — no per-frame payload allocation.
	var warm bytes.Buffer
	payload := bytes.Repeat([]byte{9}, 512)
	scratch = make([]byte, 0, len(payload))
	if err := WriteTaggedFrame(&warm, 1, payload); err != nil {
		t.Fatal(err)
	}
	_, got, err := ReadTaggedFrameReuse(&warm, 0, scratch)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &scratch[:1][0] {
		t.Fatal("warm reuse read did not reuse the caller's buffer")
	}
}

// TestReadTaggedFrameAllocsPerFrame pins the steady-state frame read at
// zero allocations: once the caller's buffer has grown to the working
// frame size, neither the payload nor the 8-byte header costs one (a
// stack header would escape through the io.Reader).
func TestReadTaggedFrameAllocsPerFrame(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	var wire bytes.Buffer
	if err := WriteTaggedFrame(&wire, 7, bytes.Repeat([]byte{3}, 1300)); err != nil {
		t.Fatal(err)
	}
	rd := bytes.NewReader(wire.Bytes())
	var buf []byte
	read := func() {
		rd.Reset(wire.Bytes())
		tag, frame, err := ReadTaggedFrameReuse(rd, 1<<20, buf)
		if err != nil || tag != 7 || len(frame) != 1300 {
			t.Fatalf("read tag %d, %d bytes, err %v", tag, len(frame), err)
		}
		buf = frame
	}
	read()
	if perFrame := testing.AllocsPerRun(100, read); perFrame != 0 {
		t.Fatalf("a steady-state frame read took %.0f allocations, want 0", perFrame)
	}
}

func TestEncodeDecodeUint64s(t *testing.T) {
	in := []uint64{0, 1, ^uint64(0), 0xdeadbeef}
	out, err := DecodeUint64s(EncodeUint64s(in))
	if err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("roundtrip mismatch at %d", i)
		}
	}
	if _, err := DecodeUint64s([]byte{1, 2, 3}); err == nil {
		t.Fatal("ragged payload should error")
	}
}

// writeCheckedFrame is the reference writer of the checked-frame
// layout ReadCheckedFrame reads: length prefix, payload, CRC32C
// trailer. internal/store frames its WAL records the same way in its
// own scratch buffer.
func writeCheckedFrame(w io.Writer, payload []byte) error {
	var hdr, sum [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	binary.BigEndian.PutUint32(sum[:], crc32.Checksum(payload, crcTable))
	for _, b := range [][]byte{hdr[:], payload, sum[:]} {
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// Checked frames (the WAL record framing) round-trip, detect
// corruption as ErrChecksum, and report a torn tail as
// io.ErrUnexpectedEOF — the distinction internal/store's recovery
// leans on.
func TestCheckedFrameRoundTrip(t *testing.T) {
	for _, payload := range [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{7}, 1000)} {
		var buf bytes.Buffer
		if err := writeCheckedFrame(&buf, payload); err != nil {
			t.Fatal(err)
		}
		got, err := ReadCheckedFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("round trip changed %d-byte payload", len(payload))
		}
	}
}

func TestCheckedFrameDetectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := writeCheckedFrame(&buf, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[6] ^= 0x01 // flip a payload bit
	if _, err := ReadCheckedFrame(bytes.NewReader(data)); !errors.Is(err, ErrChecksum) {
		t.Fatalf("corrupt frame: err = %v, want ErrChecksum", err)
	}
}

func TestCheckedFrameTornTail(t *testing.T) {
	var buf bytes.Buffer
	if err := writeCheckedFrame(&buf, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	for cut := 1; cut < len(whole); cut++ {
		_, err := ReadCheckedFrame(bytes.NewReader(whole[:len(whole)-cut]))
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut=%d: err = %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
	if _, err := ReadCheckedFrame(bytes.NewReader(nil)); !errors.Is(err, io.EOF) {
		t.Fatalf("empty stream: err = %v, want io.EOF", err)
	}
}
