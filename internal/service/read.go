package service

import (
	"errors"
	"fmt"
	"net"

	"shuffledp/internal/ecies"
	"shuffledp/internal/pipeline"
	"shuffledp/internal/transport"
)

// intakeFrames is the intake queue's capacity in opened session
// frames: enough that a reader can open its next frame while the
// batch stage splits the previous one. It is a constant, not a knob:
// capacities 1, 4 and 16 measured no better than 2 on either service
// benchmark workload (EXPERIMENTS.md, "Spend the profile"), and each
// slot can pin a DefaultMaxFrame-sized plaintext and its words, up to
// eight times as many bytes again, which is the reason to keep it
// small.
const intakeFrames = 2

// frameBuf is one opened session frame's two buffers, which travel
// and come back to a free list together: plain, the authenticated
// plaintext as the client packed it, and words, its reports as the
// reader unpacked them.
type frameBuf struct {
	plain []byte
	words []uint64
}

// frameBlock is one opened session frame on its way to the batch
// stage, with the epoch id the frame asserted and the free list of the
// connection that opened it. The reader has checked the plaintext with
// Codec.unpack, so words holds at least one valid report.
type frameBlock struct {
	frameBuf
	epoch uint32
	// home is the reader's own one-frame free list. The batch stage gives
	// the buffers back there first and to the service's list only when
	// home is full, so the one opened frame each connection may hold on
	// top of the intake and the batch stage's (DESIGN.md §6) comes back
	// to it.
	home chan frameBuf
}

// errStopIngest is the reader sentinel for "the service is stopping":
// the loop ends, but the connection did not fail.
var errStopIngest = errors.New("service: stopping")

// errKickConn wraps connection-scoped protocol violations — a bad
// session hello, a session frame failing authentication or sequence,
// a plaintext the codec does not unpack. The connection is dropped and
// counted in Snapshot.Kicked; the service (and every other connection)
// carries on.
var errKickConn = errors.New("service: kicking connection")

// readConn is the read stage for one connection: a pipeline.Reader
// feeding the intake queue, deadline-guarded so a stalled client is
// disconnected (Snapshot.IdleClosed) instead of pinning this goroutine
// — and Drain's conns.Wait — forever.
//
// The first frame must be a SessionHelloTag frame, which performs the
// session handshake: every later frame is then one AEAD-sealed batch
// of codec-packed reports, opened and unpacked here and handed to the
// batch stage whole — one intake send per frame — so the rest of the
// pipeline sees only authenticated plaintext and valid words. Protocol
// violations (oversized frame, missing or bad hello, failed AEAD,
// replayed or reordered counter, a plaintext that does not unpack)
// kick only this connection: a hostile client holding the public key
// can end its own connection, never the service.
func (s *Service) readConn(conn net.Conn) {
	defer s.conns.Done()
	defer s.forget(conn)
	defer conn.Close()
	var sess *ecies.Session
	home := make(chan frameBuf, 1)
	rd := &pipeline.Reader{
		Conn:        conn,
		IdleTimeout: s.cfg.IdleTimeout,
		MaxFrame:    s.cfg.maxFrame,
		Handle: func(tag uint32, frame []byte) error {
			if sess == nil {
				if tag != SessionHelloTag {
					return fmt.Errorf("%w: first frame has tag %#x, not the session hello", errKickConn, tag)
				}
				ns, err := ecies.NewServerSession(s.cfg.Key, frame)
				if err != nil {
					return fmt.Errorf("%w: %v", errKickConn, err)
				}
				sess = ns
				return nil
			}
			s.cfg.Meter.Send(PartyUsers, PartyShuffler, len(frame))
			// Session batch frame: the tag is the epoch the whole
			// batch asserts. The plaintext opens, and its words unpack,
			// into buffers given back to this connection or, failing
			// that, from the service's free list (fresh ones only when
			// both are empty); the batch stage gives them back once it
			// has logged the frame and copied its words into a run.
			if len(frame) <= ecies.SessionOverhead {
				return fmt.Errorf("%w: short session frame (%d bytes)", errKickConn, len(frame))
			}
			buf := take(home, s.plains)
			pt, err := sess.Open(buf.plain[:0], frame)
			if err != nil {
				return fmt.Errorf("%w: %v", errKickConn, err)
			}
			words, err := s.codec.unpack(buf.words[:0], pt)
			if err != nil {
				return fmt.Errorf("%w: %v", errKickConn, err)
			}
			// Post-exhaustion frames flow to the batch stage too: it is the
			// single goroutine that counts AND write-ahead logs rejected
			// drops, so the Rejected counter survives a crash like the
			// others.
			return s.handOffFrame(frameBlock{frameBuf: frameBuf{plain: pt, words: words}, epoch: tag, home: home})
		},
	}
	switch err := rd.Run(); {
	case err == nil || errors.Is(err, errStopIngest):
	case errors.Is(err, pipeline.ErrIdleTimeout):
		s.idleClosed.Add(1)
	case errors.Is(err, errKickConn), errors.Is(err, transport.ErrFrameTooLarge):
		s.kicked.Add(1)
	case s.stopped():
	default:
		s.fail(fmt.Errorf("service: read report frame: %w", err))
	}
}

// handOffFrame passes an opened frame from its reader to the batch
// stage, the only intake send: from here on its buffers are the batch
// stage's until returnFrame, and its reports count as Received. It
// returns errStopIngest, with the buffers still the reader's, when the
// service stops first.
func (s *Service) handOffFrame(b frameBlock) error {
	select {
	case s.intake <- b:
		s.received.Add(int64(len(b.words)))
		return nil
	case <-s.stop:
		return errStopIngest
	}
}
