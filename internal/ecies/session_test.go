package ecies

import (
	"bytes"
	"errors"
	"testing"
)

func testSessionPair(t testing.TB) (*Session, *Session) {
	t.Helper()
	priv, err := GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	client, hello, err := NewClientSession(priv.Public())
	if err != nil {
		t.Fatal(err)
	}
	server, err := NewServerSession(priv, hello)
	if err != nil {
		t.Fatal(err)
	}
	return client, server
}

func TestSessionRoundTrip(t *testing.T) {
	client, server := testSessionPair(t)
	for i := 0; i < 10; i++ {
		msg := bytes.Repeat([]byte{byte(i)}, 8+i*13)
		frame, err := client.Seal(nil, msg)
		if err != nil {
			t.Fatal(err)
		}
		if len(frame) != len(msg)+SessionOverhead {
			t.Fatalf("frame %d bytes, want %d", len(frame), len(msg)+SessionOverhead)
		}
		pt, err := server.Open(nil, frame)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(pt, msg) {
			t.Fatalf("frame %d: plaintext differs", i)
		}
	}
}

func TestSessionHelloValidation(t *testing.T) {
	priv, err := GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	_, hello, err := NewClientSession(priv.Public())
	if err != nil {
		t.Fatal(err)
	}
	// Truncated hello.
	if _, err := NewServerSession(priv, hello[:HelloSize-1]); err == nil {
		t.Error("truncated hello accepted")
	}
	// Oversized hello.
	if _, err := NewServerSession(priv, append(append([]byte(nil), hello...), 0)); err == nil {
		t.Error("oversized hello accepted")
	}
	// Wrong version byte.
	bad := append([]byte(nil), hello...)
	bad[0] = SessionVersion + 1
	if _, err := NewServerSession(priv, bad); !errors.Is(err, ErrSessionVersion) {
		t.Errorf("wrong version: got %v, want ErrSessionVersion", err)
	}
	// Corrupt ephemeral point (not on the curve).
	bad = append([]byte(nil), hello...)
	bad[2] ^= 0xff
	if _, err := NewServerSession(priv, bad); err == nil {
		t.Error("corrupt ephemeral point accepted")
	}
}

// A frame replayed, reordered, or skipped must be refused: the
// explicit counter pins every frame to one sequence position.
func TestSessionReplayAndReorder(t *testing.T) {
	client, server := testSessionPair(t)
	f0, err := client.Seal(nil, []byte("frame zero"))
	if err != nil {
		t.Fatal(err)
	}
	f1, err := client.Seal(nil, []byte("frame one"))
	if err != nil {
		t.Fatal(err)
	}
	// Reorder: frame 1 before frame 0.
	if _, err := server.Open(nil, f1); !errors.Is(err, ErrSessionReplay) {
		t.Errorf("reordered frame: got %v, want ErrSessionReplay", err)
	}
	if _, err := server.Open(nil, f0); err != nil {
		t.Fatal(err)
	}
	// Replay: frame 0 again.
	if _, err := server.Open(nil, f0); !errors.Is(err, ErrSessionReplay) {
		t.Errorf("replayed frame: got %v, want ErrSessionReplay", err)
	}
	if _, err := server.Open(nil, f1); err != nil {
		t.Fatal(err)
	}
}

func TestSessionTamperedFrame(t *testing.T) {
	client, server := testSessionPair(t)
	frame, err := client.Seal(nil, []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{8, len(frame) - 1} { // ciphertext byte, tag byte
		bad := append([]byte(nil), frame...)
		bad[i] ^= 1
		if _, err := server.Open(nil, bad); !errors.Is(err, ErrSessionAuth) {
			t.Errorf("tampered byte %d: got %v, want ErrSessionAuth", i, err)
		}
	}
	// Truncated frame.
	if _, err := server.Open(nil, frame[:SessionOverhead-1]); !errors.Is(err, ErrSessionAuth) {
		t.Errorf("truncated frame: got %v, want ErrSessionAuth", err)
	}
	// The failed opens must not have advanced the counter.
	if _, err := server.Open(nil, frame); err != nil {
		t.Fatalf("valid frame after tampered attempts: %v", err)
	}
}

// Two sessions to the same server key must not decrypt each other's
// frames: the key is bound to the client's ephemeral point.
func TestSessionKeysIndependent(t *testing.T) {
	priv, err := GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	clientA, _, err := NewClientSession(priv.Public())
	if err != nil {
		t.Fatal(err)
	}
	_, helloB, err := NewClientSession(priv.Public())
	if err != nil {
		t.Fatal(err)
	}
	serverB, err := NewServerSession(priv, helloB)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := clientA.Seal(nil, []byte("cross-session"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := serverB.Open(nil, frame); !errors.Is(err, ErrSessionAuth) {
		t.Errorf("cross-session frame: got %v, want ErrSessionAuth", err)
	}
}

// The per-report session hot path must not allocate: Seal and Open
// into capacity-sufficient buffers are zero-allocation, which is what
// lets the gateway amortize all crypto cost into the handshake.
func TestSessionNoAllocs(t *testing.T) {
	client, server := testSessionPair(t)
	msg := make([]byte, 512)
	sealBuf := make([]byte, 0, len(msg)+SessionOverhead)
	openBuf := make([]byte, 0, len(msg))
	allocs := testing.AllocsPerRun(200, func() {
		frame, err := client.Seal(sealBuf[:0], msg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := server.Open(openBuf[:0], frame); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Seal+Open allocated %.1f times per frame, want 0", allocs)
	}
}

func TestStorageSealerRoundTrip(t *testing.T) {
	priv, err := GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	sealer, err := NewStorageSealer(priv)
	if err != nil {
		t.Fatal(err)
	}
	// A second sealer from the same key (a recovered process) must
	// open records the first one sealed.
	reopened, err := NewStorageSealer(priv)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		msg := bytes.Repeat([]byte{byte(7 + i)}, 12+i)
		rec := sealer.Seal(nil, msg)
		pt, err := reopened.Open(nil, rec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pt, msg) {
			t.Fatal("storage record plaintext differs")
		}
		// Tampering is detected.
		rec[len(rec)-1] ^= 1
		if _, err := reopened.Open(nil, rec); err == nil {
			t.Fatal("tampered storage record accepted")
		}
	}
	// A different key must not open the records.
	other, err := GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	wrong, err := NewStorageSealer(other)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wrong.Open(nil, sealer.Seal(nil, []byte("secret"))); err == nil {
		t.Fatal("storage record opened under the wrong key")
	}
}
