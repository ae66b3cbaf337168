package service

import (
	"errors"
	"fmt"
	"net"

	"shuffledp/internal/ecies"
	"shuffledp/internal/pipeline"
	"shuffledp/internal/transport"
)

// errStopIngest is the reader sentinel for "the service is stopping":
// the loop ends, but the connection did not fail.
var errStopIngest = errors.New("service: stopping")

// errKickConn wraps connection-scoped protocol violations — a bad
// session hello, a session frame failing authentication or sequence,
// a plaintext the codec does not unpack. The connection is dropped and
// counted in Snapshot.Kicked; the service (and every other connection)
// carries on.
var errKickConn = errors.New("service: kicking connection")

// readConn is the read stage for one connection, and the batch stage
// for each frame it opens: a pipeline.Reader, deadline-guarded so a
// stalled client is disconnected (Snapshot.IdleClosed) instead of
// pinning this goroutine — and Drain's conns.Wait — forever.
//
// The first frame must be a SessionHelloTag frame, which performs the
// session handshake: every later frame is then one AEAD-sealed batch
// of codec-packed reports, opened and unpacked here into the reader's
// own two buffers, accepted whole under batchMu, and its completed runs
// dispatched — so the rest of the pipeline sees only authenticated
// plaintext and valid words. Protocol violations (oversized frame,
// missing or bad hello, failed AEAD, replayed or reordered counter, a
// plaintext that does not unpack) kick only this connection: a hostile
// client holding the public key can end its own connection, never the
// service.
func (s *Service) readConn(conn net.Conn) {
	defer s.conns.Done()
	defer s.forget(conn)
	defer conn.Close()
	var sess *ecies.Session
	// The frame's plaintext and words, and the runs it completed: each
	// is done with before the next frame opens, so the reader reuses
	// them, and they die with the connection.
	var (
		plain []byte
		words []uint64
		runs  []epochBatch
	)
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
			// batch asserts.
			if len(frame) <= ecies.SessionOverhead {
				return fmt.Errorf("%w: short session frame (%d bytes)", errKickConn, len(frame))
			}
			var err error
			if plain, err = openFrame(sess, plain[:0], frame); err != nil {
				return fmt.Errorf("%w: %v", errKickConn, err)
			}
			if words, err = s.codec.unpack(words[:0], plain); err != nil {
				return fmt.Errorf("%w: %v", errKickConn, err)
			}
			// Post-exhaustion frames are accepted too: the batch stage
			// counts AND write-ahead logs rejected drops, so the Rejected
			// counter survives a crash like the others.
			if runs, err = s.accept(tag, plain, words, runs[:0]); err != nil {
				return err
			}
			for _, eb := range runs {
				s.dispatch(eb)
			}
			return nil
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

// openFrame opens one session frame; the package's tests count the
// calls through it.
var openFrame = (*ecies.Session).Open
