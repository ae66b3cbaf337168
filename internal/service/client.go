package service

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"shuffledp/internal/ecies"
	"shuffledp/internal/ldp"
	"shuffledp/internal/rng"
	"shuffledp/internal/transport"
)

// Client submits encrypted reports to a Service over one connection
// in the session protocol: one handshake frame on first write, then
// batches of reports sealed under the per-connection AEAD key.
//
// Every frame is written all-or-nothing: the full frame (header and
// payload) is assembled in one buffer and handed to the connection in
// a single Write, and any write error poisons the client — every
// later call returns the same error instead of resuming mid-frame on
// a stream whose framing is no longer trustworthy. A Client is not
// safe for concurrent use — run one Client per goroutine, which is
// also the deployment shape (one connection per reporting device or
// per collector gateway).
type Client struct {
	fo    ldp.FrequencyOracle
	codec *Codec
	rand  *rng.Rand
	conn  io.Writer
	epoch uint32
	// broken latches the first write failure; the stream past it
	// cannot be trusted to be frame-aligned.
	broken error

	// wire is the frame assembly buffer (header plus payload, written
	// in one call); frameStart is where the current frame's header
	// begins in it (after the hello frame on the first write).
	wire       []byte
	frameStart int

	sess       *ecies.Session
	hello      []byte // handshake frame payload, pending until first write
	helloSent  bool
	batchSize  int
	batch      packer // the open batch's reports, packed as the codec lays them out
	batchEpoch uint32 // epoch the open batch asserts
}

// NewSessionClient prepares a submission client: its first write leads
// with the session hello, and reports are packed batchSize to a frame
// under the session key (batchSize <= 0 means DefaultClientBatch).
// Buffered reports are pushed by Flush or Close — like any buffered
// writer, a batch that is never flushed is never sent. rand may be nil
// if only SendReport (pre-randomized reports) will be used.
func NewSessionClient(fo ldp.FrequencyOracle, serverKey *ecies.PublicKey, rand *rng.Rand, conn io.Writer, batchSize int) (*Client, error) {
	if fo == nil {
		return nil, errors.New("service: client needs a frequency oracle")
	}
	if serverKey == nil {
		return nil, errors.New("service: client needs the server's public key")
	}
	if conn == nil {
		return nil, errors.New("service: client needs a connection")
	}
	codec, err := NewCodec(fo)
	if err != nil {
		return nil, err
	}
	if batchSize <= 0 {
		batchSize = DefaultClientBatch
	}
	sess, hello, err := ecies.NewClientSession(serverKey)
	if err != nil {
		return nil, fmt.Errorf("service: client session handshake: %w", err)
	}
	return &Client{
		fo: fo, codec: codec, rand: rand, conn: conn, epoch: EpochCurrent,
		sess: sess, hello: hello, batchSize: batchSize,
		batch: codec.newPacker(batchSize),
	}, nil
}

// Send randomizes v with the oracle and submits the encrypted report.
func (c *Client) Send(v int) error {
	if c.rand == nil {
		return errors.New("service: client has no randomness for Send")
	}
	return c.SendReport(c.fo.Randomize(v, c.rand))
}

// SendValues randomizes and submits every value in order.
func (c *Client) SendValues(values []int) error {
	for _, v := range values {
		if err := c.Send(v); err != nil {
			return err
		}
	}
	return nil
}

// SendReport submits an already-randomized report into the open
// session batch, which is sealed end-to-end for the server and written
// when full.
func (c *Client) SendReport(rep ldp.Report) error {
	if c.broken != nil {
		return c.broken
	}
	// A report the codec refuses leaves the open batch as it was.
	w, err := c.codec.encode(rep)
	if err != nil {
		return err
	}
	if c.batch.n == 0 {
		c.batchEpoch = c.epoch
	}
	c.batch.add(w)
	if c.batch.n >= c.batchSize {
		return c.flushBatch()
	}
	return nil
}

// flushBatch seals and writes the open session batch as one frame.
func (c *Client) flushBatch() error {
	if c.broken != nil {
		return c.broken
	}
	if c.batch.n == 0 {
		return nil
	}
	wire := c.beginFrame()
	wire, err := c.sess.Seal(wire, c.batch.bytes())
	if err != nil {
		c.broken = fmt.Errorf("service: client seal batch: %w", err)
		return c.broken
	}
	c.batch.reset()
	return c.finishFrame(wire, c.batchEpoch)
}

// beginFrame resets the wire buffer and lays down an 8-byte header
// placeholder for the frame about to be assembled. While the hello
// has not gone out yet, the complete hello frame is laid down first,
// so the handshake rides in the same write as the first batch — never
// a frame fragment on its own.
func (c *Client) beginFrame() []byte {
	wire := c.wire[:0]
	if !c.helloSent {
		var hdr [8]byte
		binary.BigEndian.PutUint32(hdr[:4], uint32(len(c.hello)))
		binary.BigEndian.PutUint32(hdr[4:], SessionHelloTag)
		wire = append(wire, hdr[:]...)
		wire = append(wire, c.hello...)
	}
	c.frameStart = len(wire)
	return append(wire, 0, 0, 0, 0, 0, 0, 0, 0)
}

// finishFrame fixes up the header of the frame begun by beginFrame
// and hands the whole buffer to the connection in a single Write. A
// write error poisons the client: part of a frame may be on the wire,
// so no later write could ever be frame-aligned.
func (c *Client) finishFrame(wire []byte, tag uint32) error {
	c.wire = wire
	frame := wire[c.frameStart:]
	if len(frame)-8 > transport.MaxFrameSize {
		return transport.ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(frame[:4], uint32(len(frame)-8))
	binary.BigEndian.PutUint32(frame[4:8], tag)
	if _, err := c.conn.Write(wire); err != nil {
		c.broken = fmt.Errorf("service: client write: %w", err)
		return c.broken
	}
	c.helloSent = true
	return nil
}

// Flush pushes the open session batch, if any, to the connection.
func (c *Client) Flush() error {
	return c.flushBatch()
}

// Close flushes and, if the connection is a closer, closes it —
// signalling "this client is done" to the service (its reader sees
// EOF, which is what Drain waits for).
func (c *Client) Close() error {
	if err := c.Flush(); err != nil {
		return err
	}
	if cl, ok := c.conn.(io.Closer); ok {
		return cl.Close()
	}
	return nil
}
