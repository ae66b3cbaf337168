package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

// The two fuzz targets drive the frame reader every socket actually
// runs — ReadTaggedFrameReuse, with a per-call limit and a reused
// buffer (pipeline.Reader, the cluster's links and the mesh all end
// there; ReadTaggedFrameLimit is its nil-buffer form).

// fuzzLimit is the frame cap FuzzReadFrame reads under: small, so the
// fuzzer finds both sides of it.
const fuzzLimit = 1 << 12

// FuzzReadFrame feeds arbitrary wire bytes to ReadTaggedFrameReuse.
// Whatever the input — malformed lengths, truncated payloads, trailing
// garbage — it must either return the tag and a payload consistent
// with the header or an error; it must never panic, never hand back
// (or retain) more bytes than the input actually contained, refuse an
// over-limit prefix having consumed the 8-byte header and nothing
// else, and reuse the caller's buffer exactly when it is large enough.
func FuzzReadFrame(f *testing.F) {
	frame := func(tag uint32, payload []byte) []byte {
		var buf bytes.Buffer
		if err := WriteTaggedFrame(&buf, tag, payload); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add([]byte{})                                        // no header at all
	f.Add([]byte{0, 0, 0, 1, 0, 0})                        // header cut mid-tag
	f.Add(frame(0, nil))                                   // empty frame
	f.Add(frame(7, []byte("hello")))                       // small frame, fits the reused buffer
	f.Add(frame(^uint32(0), bytes.Repeat([]byte{7}, 300))) // outgrows the reused buffer
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 1})      // length > MaxFrameSize
	f.Add([]byte{0, 0, 0, 10, 0, 0, 0, 2, 1, 2})           // truncated payload
	f.Add([]byte{0, 0, 0x10, 0x01, 0, 0, 0, 3, 0, 1})      // one byte over the limit, 2 bytes sent
	f.Add(append(frame(1, []byte("a")), 0xde, 0xad))       // trailing garbage

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		scratch := bytes.Repeat([]byte{0xa5}, 64)[:0]
		tag, payload, err := ReadTaggedFrameReuse(r, fuzzLimit, scratch)
		if err != nil {
			if payload != nil {
				t.Fatal("error with non-nil payload")
			}
			if errors.Is(err, ErrFrameTooLarge) {
				if len(data) < 8 || binary.BigEndian.Uint32(data[:4]) <= fuzzLimit {
					t.Fatalf("refused a %d-byte input as over the %d-byte limit", len(data), fuzzLimit)
				}
				if r.Len() != len(data)-8 {
					t.Fatalf("over-limit refusal consumed %d bytes, want the 8-byte header only", len(data)-r.Len())
				}
			}
			return
		}
		if len(payload)+8 > len(data) {
			t.Fatalf("payload %d bytes from %d input bytes", len(payload), len(data))
		}
		if want := binary.BigEndian.Uint32(data[:4]); uint32(len(payload)) != want || want > fuzzLimit {
			t.Fatalf("payload length %d, prefix says %d (limit %d)", len(payload), want, fuzzLimit)
		}
		if want := binary.BigEndian.Uint32(data[4:8]); tag != want {
			t.Fatalf("tag %d, header says %d", tag, want)
		}
		if !bytes.Equal(payload, data[8:8+len(payload)]) {
			t.Fatal("payload bytes differ from wire bytes")
		}
		if r.Len() != len(data)-8-len(payload) {
			t.Fatalf("read %d bytes past the frame", len(data)-8-len(payload)-r.Len())
		}
		if n := len(payload); n > 0 && (n <= cap(scratch)) != (&payload[0] == &scratch[:1][0]) {
			t.Fatalf("a %d-byte payload and a %d-byte buffer: aliasing = %v", n, cap(scratch), &payload[0] == &scratch[:1][0])
		}
	})
}

// FuzzFrameRoundTrip checks WriteTaggedFrame/ReadTaggedFrameReuse are
// exact inverses for any payload under a limit of exactly its length
// (one less is refused on the header), and that a reader positioned
// after one frame picks up the next byte stream untouched — reading
// it into the buffer the first payload came back in.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte("report"))
	f.Add(bytes.Repeat([]byte{0xab}, 1000))

	f.Fuzz(func(t *testing.T, payload []byte) {
		tag := uint32(len(payload)) * 2654435761
		var buf bytes.Buffer
		if err := WriteTaggedFrame(&buf, tag, payload); err != nil {
			t.Fatal(err)
		}
		if err := WriteTaggedFrame(&buf, ^tag, []byte("next")); err != nil {
			t.Fatal(err)
		}
		if len(payload) > 1 { // a limit of zero means the default ceiling
			r := bytes.NewReader(buf.Bytes())
			if _, _, err := ReadTaggedFrameReuse(r, len(payload)-1, nil); !errors.Is(err, ErrFrameTooLarge) || r.Len() != buf.Len()-8 {
				t.Fatalf("limit one under the payload: err = %v, %d of %d bytes left", err, r.Len(), buf.Len())
			}
		}
		gotTag, got, err := ReadTaggedFrameReuse(&buf, max(len(payload), 1), nil)
		if err != nil {
			t.Fatal(err)
		}
		if gotTag != tag || !bytes.Equal(got, payload) {
			t.Fatalf("round trip changed the frame: tag %d vs %d, %d vs %d bytes", gotTag, tag, len(got), len(payload))
		}
		nextTag, next, err := ReadTaggedFrameReuse(&buf, 4, got)
		if err != nil || nextTag != ^tag || string(next) != "next" {
			t.Fatalf("second frame corrupted: tag %d, %q, %v", nextTag, next, err)
		}
		if _, _, err := ReadTaggedFrameReuse(&buf, 4, next); err != io.EOF {
			t.Fatalf("expected EOF after last frame, got %v", err)
		}
	})
}
