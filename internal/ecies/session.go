package ecies

// Per-connection sessions: one ECIES-style handshake on connect, then
// symmetric AEAD for every report after it. The streaming service's
// original wire protocol paid a full ECIES (ephemeral P-256 ECDH +
// HKDF) per report — the §VII SS baseline's cost model — which caps a
// gateway at a few thousand reports per second. A session does that
// ECDH exactly once: the client sends an ephemeral-key hello, both
// sides derive a direction-bound AES-GCM key over a transcript that
// pins the protocol version and both public keys, and every batched
// report frame after it costs one AES-GCM seal/open — hardware-speed,
// zero allocations (see TestSessionNoAllocs).
//
// Nonce discipline: the 96-bit GCM nonce is a fixed direction byte
// followed by a monotonic 64-bit frame counter. Both sides count
// frames independently; the receiver insists the explicit counter in
// each frame equals the next expected value, so a replayed, reordered,
// or dropped-and-resent frame fails authentication or the counter
// check rather than being folded twice. A counter can never repeat
// under one key (the session errors at 2^64), and keys are never
// reused across connections (fresh ephemeral per hello).

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
)

// SessionVersion is the handshake version byte carried by the hello.
// A server refuses hellos from a version it does not speak with
// ErrSessionVersion instead of guessing at the key schedule — or at the
// record layout inside the frames: version 3 packs word reports bit
// after bit at their group's bit width, where version 2 rounded each
// up to whole bytes and version 1 padded them to 8 bytes.
const SessionVersion = 3

// HelloSize is the exact length of a session hello: the version byte
// plus the client's uncompressed ephemeral P-256 point.
const HelloSize = 1 + pubKeySize

// SessionOverhead is the ciphertext expansion of one sealed session
// frame: the explicit 8-byte frame counter plus the 16-byte GCM tag.
const SessionOverhead = 8 + gcmTagSize

const (
	gcmNonceSize = 12
	gcmTagSize   = 16
)

// ErrSessionVersion is returned by NewServerSession for a hello whose
// version byte this build does not speak.
var ErrSessionVersion = errors.New("ecies: unsupported session version")

// ErrSessionReplay is returned by Session.Open when a frame carries a
// counter other than the next expected one — a replayed, reordered, or
// dropped frame. The connection is unrecoverable: the sender and
// receiver disagree on the transcript.
var ErrSessionReplay = errors.New("ecies: session frame counter out of sequence")

// ErrSessionAuth is returned by Session.Open when a frame fails AEAD
// authentication (tampered ciphertext, wrong key, or truncation).
var ErrSessionAuth = errors.New("ecies: session frame authentication failed")

// Session is one direction of an established connection: an AES-GCM
// key bound to the handshake transcript plus the monotonic frame
// counters. The client seals frames in send order; the server opens
// them insisting on the same order. A Session is not safe for
// concurrent use — it belongs to one connection's reader or writer.
type Session struct {
	aead cipher.AEAD
	// nextSeal and nextOpen are the monotonic frame counters; each
	// side advances only the one matching its role.
	nextSeal, nextOpen uint64
	// nonce is the scratch nonce buffer (kept on the struct so the
	// zero-alloc hot path never heap-escapes a fresh array).
	nonce [gcmNonceSize]byte
}

// sessionKey runs the handshake key schedule both sides share: the
// ECDH secret is extracted and expanded (HKDF-SHA256) over a
// transcript binding the version byte, the client's ephemeral point,
// the server's static point, and an explicit direction label, so a
// key can never be confused across versions, peers, or directions.
func sessionKey(secret, ephPub, serverPub []byte) ([]byte, error) {
	ext := hmac.New(sha256.New, []byte("shuffledp-session-v1"))
	ext.Write(secret)
	ext.Write([]byte{SessionVersion})
	ext.Write(ephPub)
	ext.Write(serverPub)
	prk := ext.Sum(nil)
	h := hmac.New(sha256.New, prk)
	h.Write([]byte("client->server"))
	h.Write([]byte{1})
	return h.Sum(nil)[:16], nil // AES-128-GCM key
}

func newSession(secret, ephPub, serverPub []byte) (*Session, error) {
	key, err := sessionKey(secret, ephPub, serverPub)
	if err != nil {
		return nil, err
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	return &Session{aead: aead}, nil
}

// NewClientSession starts a session with the holder of server's
// private key: it draws a fresh ephemeral P-256 key, derives the
// session, and returns the hello bytes the client must send as its
// first frame (version byte || ephemeral public point).
func NewClientSession(server *PublicKey) (*Session, []byte, error) {
	eph, err := ecdh.P256().GenerateKey(rand.Reader)
	if err != nil {
		return nil, nil, err
	}
	secret, err := eph.ECDH(server.key)
	if err != nil {
		return nil, nil, err
	}
	ephPub := eph.PublicKey().Bytes()
	hello := make([]byte, 0, HelloSize)
	hello = append(hello, SessionVersion)
	hello = append(hello, ephPub...)
	sess, err := newSession(secret, ephPub, server.key.Bytes())
	if err != nil {
		return nil, nil, err
	}
	return sess, hello, nil
}

// NewServerSession derives the server side of a session from a
// client's hello. A truncated or oversized hello, an unknown version
// byte (ErrSessionVersion), or an invalid ephemeral point all error —
// the connection should be dropped, never half-trusted.
func NewServerSession(priv *PrivateKey, hello []byte) (*Session, error) {
	if len(hello) != HelloSize {
		return nil, fmt.Errorf("ecies: session hello is %d bytes, want %d", len(hello), HelloSize)
	}
	if hello[0] != SessionVersion {
		return nil, fmt.Errorf("%w: %d (this build speaks %d)", ErrSessionVersion, hello[0], SessionVersion)
	}
	ephPub := hello[1:]
	ephKey, err := ecdh.P256().NewPublicKey(ephPub)
	if err != nil {
		return nil, fmt.Errorf("ecies: bad session ephemeral key: %w", err)
	}
	secret, err := priv.key.ECDH(ephKey)
	if err != nil {
		return nil, err
	}
	return newSession(secret, ephPub, priv.key.PublicKey().Bytes())
}

// sessionNonce fills the session's 96-bit GCM nonce for one frame:
// direction byte, three zero bytes, 64-bit counter big-endian. The
// direction byte is fixed because the key is already direction-bound;
// it keeps the layout self-describing.
func (s *Session) sessionNonce(counter uint64) []byte {
	s.nonce[0] = 'c'
	binary.BigEndian.PutUint64(s.nonce[4:], counter)
	return s.nonce[:]
}

// Seal appends one sealed frame to dst and returns the extended
// slice: the explicit frame counter (8 bytes big-endian) followed by
// the GCM ciphertext and tag. The counter advances by one per call
// and is also the nonce and the AAD, so a frame cannot be replayed
// under a different sequence position. Zero allocations when dst has
// capacity for len(plaintext) + SessionOverhead more bytes.
func (s *Session) Seal(dst, plaintext []byte) ([]byte, error) {
	if s.nextSeal == ^uint64(0) {
		return nil, errors.New("ecies: session frame counter exhausted")
	}
	counter := s.nextSeal
	s.nextSeal++
	nonce := s.sessionNonce(counter)
	base := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
	binary.BigEndian.PutUint64(dst[base:], counter)
	return s.aead.Seal(dst, nonce, plaintext, dst[base:base+8]), nil
}

// Open verifies and decrypts one frame produced by Seal, appending
// the plaintext to dst. The frame's explicit counter must be exactly
// the next expected one (ErrSessionReplay otherwise), and the AEAD
// tag must verify (ErrSessionAuth). On success the expected counter
// advances — a frame can never be accepted twice.
func (s *Session) Open(dst, frame []byte) ([]byte, error) {
	if len(frame) < SessionOverhead {
		return nil, fmt.Errorf("%w: frame too short (%d bytes)", ErrSessionAuth, len(frame))
	}
	counter := binary.BigEndian.Uint64(frame[:8])
	if counter != s.nextOpen {
		return nil, fmt.Errorf("%w: frame %d, expected %d", ErrSessionReplay, counter, s.nextOpen)
	}
	nonce := s.sessionNonce(counter)
	out, err := s.aead.Open(dst, nonce, frame[8:], frame[:8])
	if err != nil {
		return nil, ErrSessionAuth
	}
	s.nextOpen++
	return out, nil
}

// StorageSealer encrypts session reports at rest: the write-ahead log
// stores every report encrypted, but a session frame reaches the
// gateway under a connection-ephemeral key that cannot be re-derived
// at recovery. The sealer wraps what arrived — the service seals an
// accepted frame's whole plaintext, all of its reports, under one nonce
// and one tag — with an AES-GCM key deterministically derived from the
// service's long-term private key — the same secret recovery already
// requires — so the WAL keeps its "never holds plaintext reports"
// property at the symmetric cost of one seal per frame instead of a
// per-report ECIES re-encryption. Nonces follow NIST SP 800-38D
// §8.2.2: a 4-byte random prefix drawn once per sealer (per process
// run) plus a 64-bit counter, unique across restarts with the same
// derived key. Seal is not safe for concurrent use; the service calls
// it only from the single shuffler goroutine. Open is stateless.
type StorageSealer struct {
	aead    cipher.AEAD
	counter uint64
	// nonce is the scratch nonce: the run's random prefix in its first 4
	// bytes, the counter filled in per Seal. Kept on the struct, as
	// Session keeps its own, so Seal never heap-escapes a fresh array.
	nonce [gcmNonceSize]byte
}

// NewStorageSealer derives the at-rest key from the service's private
// key and draws the run's nonce prefix.
func NewStorageSealer(priv *PrivateKey) (*StorageSealer, error) {
	ext := hmac.New(sha256.New, []byte("shuffledp-wal-at-rest-v1"))
	ext.Write(priv.key.Bytes())
	prk := ext.Sum(nil)
	h := hmac.New(sha256.New, prk)
	h.Write([]byte("storage"))
	h.Write([]byte{1})
	key := h.Sum(nil)[:16]
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	s := &StorageSealer{aead: aead}
	if _, err := rand.Read(s.nonce[:4]); err != nil {
		return nil, fmt.Errorf("ecies: storage nonce prefix: %w", err)
	}
	return s, nil
}

// StorageOverhead is the expansion of one sealed storage record: the
// explicit nonce plus the GCM tag.
const StorageOverhead = gcmNonceSize + gcmTagSize

// Seal appends nonce || ciphertext || tag for one record to dst.
func (s *StorageSealer) Seal(dst, plaintext []byte) []byte {
	binary.BigEndian.PutUint64(s.nonce[4:], s.counter)
	s.counter++
	dst = append(dst, s.nonce[:]...)
	return s.aead.Seal(dst, s.nonce[:], plaintext, nil)
}

// Open reverses Seal, appending the record plaintext to dst.
func (s *StorageSealer) Open(dst, data []byte) ([]byte, error) {
	if len(data) < StorageOverhead {
		return nil, errors.New("ecies: sealed storage record too short")
	}
	out, err := s.aead.Open(dst, data[:gcmNonceSize], data[gcmNonceSize:], nil)
	if err != nil {
		return nil, fmt.Errorf("ecies: sealed storage record: %w", err)
	}
	return out, nil
}
