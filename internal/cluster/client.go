package cluster

import (
	"bufio"
	"bytes"
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"time"

	"shuffledp/internal/ahe"
	"shuffledp/internal/ldp"
	"shuffledp/internal/rng"
	"shuffledp/internal/secretshare"
)

// ClientConfig parameterizes a reporting client.
type ClientConfig struct {
	// Topology names the shufflers to report to.
	Topology Topology
	// FO is the frequency oracle randomized reports come from.
	FO ldp.FrequencyOracle
	// Pub is the analyzer's AHE public key (the last share is encrypted
	// under it).
	Pub ahe.PublicKey
	// Source drives the share splits (secretshare.Crypto in production,
	// a seeded rng in tests — the split randomness never influences
	// estimates, only hiding).
	Source secretshare.Source
	// Dial, when non-nil, replaces net.DialTimeout — the chaos-
	// injection hook (faultnet.Network.Dial fits).
	Dial DialFunc
	// Retry, when enabled (Attempts > 1), makes the client
	// self-healing: a shuffler connection that fails is redialed with
	// jittered backoff and the current collection's frames are replayed
	// in full. The per-user nonces make the replay idempotent at the
	// shufflers (a share that already arrived is recognized and
	// dropped), so a disconnect-resubmit changes nothing about the
	// sealed round. The zero policy reports each frame at most once,
	// surfacing the first write error — the pre-existing behavior.
	Retry RetryPolicy
}

func (cfg *ClientConfig) validate() error {
	if err := cfg.Topology.validate(); err != nil {
		return err
	}
	if cfg.FO == nil || cfg.Pub == nil || cfg.Source == nil {
		return errors.New("cluster: client needs an oracle, the AHE public key, and randomness")
	}
	return requireWordPlaintext(cfg.Pub)
}

// Client submits secret-shared reports to every shuffler of a cluster
// (Algorithm 1, "User i"): each randomized report is encoded to a
// 64-bit word, additively split into R shares, and one share goes to
// each shuffler — the last one AHE-encrypted so even all R shufflers
// together cannot reconstruct it. Shares travel in frames: each link
// carries one shares frame per run of up to sharesPerFrame consecutive
// users, closed at that count, at a non-consecutive index, and at
// SetCollection, Flush and Close. A Client is not safe for concurrent
// use; run one per goroutine.
type Client struct {
	cfg   ClientConfig
	enc   *ldp.WordEncoder
	mod   secretshare.Modulus
	conns []net.Conn
	w     []*bufio.Writer
	col   uint32
	// queued[j] holds the closed frames already produced for shuffler j
	// in the current collection — exactly the bytes a healed connection
	// replays. The share splits (and the encryption) were drawn when the
	// report was added, so a resubmit carries identical shares and the
	// randomness stream position never depends on how many times the
	// network failed.
	queued [][][]byte
	// open[j] holds shuffler j's shares of the frame being filled: users
	// first..first+k−1, under nonces nonce−k..nonce−1 (k = 0: no frame
	// is open).
	open  [][]byte
	first uint32
	k     int
	// nonce is the next user's nonce: a crypto/rand base plus a
	// sequence counter, unique per report across reconnects (and, with
	// overwhelming probability, across clients). Deliberately not drawn
	// from Source: that stream's position must match the in-process
	// reference's split-for-split.
	nonce      uint64
	reconnects int
	// err is a frame SetCollection could not deliver, returned by the
	// next Flush or Close.
	err error
	// stopPool releases the key's background randomizer pool.
	stopPool func()
}

// NewClient connects to every shuffler in the topology and performs
// the client hellos.
func NewClient(cfg ClientConfig) (*Client, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	enc, err := ldp.NewWordEncoder(cfg.FO)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	var seed [8]byte
	if _, err := crand.Read(seed[:]); err != nil {
		return nil, fmt.Errorf("cluster: client nonce seed: %w", err)
	}
	c := &Client{
		cfg:    cfg,
		enc:    enc,
		mod:    secretshare.NewModulus(64),
		queued: make([][][]byte, cfg.Topology.R()),
		open:   make([][]byte, cfg.Topology.R()),
		nonce:  binary.LittleEndian.Uint64(seed[:]),
	}
	// Every report encrypts one share; keep randomizers h^r precomputed
	// in the background for the lifetime of the client. The pool draws
	// from crypto/rand only, never cfg.Source, so shares stay
	// bit-identical to the in-process reference run.
	c.stopPool = cfg.Pub.StartRandomizerPool()
	for _, addr := range cfg.Topology.Shufflers {
		conn, err := dialRetry(cfg.Dial, addr, defaultDialTimeout)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.conns = append(c.conns, conn)
		w := bufio.NewWriter(conn)
		c.w = append(c.w, w)
		if err := writeHello(w, tagClientHello, 0); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// SetCollection stamps subsequent reports with a collection round id
// (new clients start at round 0). Moving to a new collection sends the
// open frame and drops the previous collection's replay queue — it
// sealed, resubmitting it is pointless.
func (c *Client) SetCollection(id int) {
	if uint32(id) == c.col {
		return
	}
	if err := c.closeFrame(); err != nil && c.err == nil {
		c.err = err
	}
	c.col = uint32(id)
	for j := range c.queued {
		c.queued[j] = nil
	}
}

// Reconnects returns how many shuffler connections the client has
// healed (always 0 with retry disabled).
func (c *Client) Reconnects() int { return c.reconnects }

// SendReport shares an already-randomized report as user `index` of
// the current collection. Every user index in [0, n) must be reported
// exactly once before the analyzer seals the round at n; an index
// outside [0, 2^32) is refused before any share is drawn. The shares
// join the open frame, which goes out when it closes.
func (c *Client) SendReport(index int, rep ldp.Report) error {
	if index < 0 || int64(index) > math.MaxUint32 {
		return fmt.Errorf("cluster: user index %d outside [0, 2^32)", index)
	}
	if c.k > 0 && int64(index) != int64(c.first)+int64(c.k) {
		if err := c.closeFrame(); err != nil {
			return err
		}
	}
	word := c.enc.Encode(rep)
	r := len(c.conns)
	shares := secretshare.Split(word, r, c.mod, c.cfg.Source)
	ct, err := c.cfg.Pub.Encrypt(shares[r-1])
	if err != nil {
		return fmt.Errorf("cluster: client encrypt: %w", err)
	}
	if c.k == 0 {
		c.first = uint32(index)
		for j := range c.open {
			c.open[j] = c.open[j][:0]
		}
	}
	for j := 0; j < r-1; j++ {
		c.open[j] = binary.LittleEndian.AppendUint64(c.open[j], shares[j])
	}
	c.open[r-1] = append(c.open[r-1], c.cfg.Pub.Serialize(ct)...)
	c.k++
	c.nonce++
	if c.k == sharesPerFrame {
		return c.closeFrame()
	}
	return nil
}

// closeFrame sends the open frame, if any, to every shuffler: plain
// shares to shufflers 0..R−2, ciphertexts to R−1.
func (c *Client) closeFrame() error {
	if c.k == 0 {
		return nil
	}
	sf := sharesFrame{collection: c.col, first: c.first, nonce: c.nonce - uint64(c.k)}
	c.k = 0
	last := len(c.open) - 1
	for j, body := range c.open {
		tag := tagShares
		if j == last {
			tag = tagEncShares
		}
		sf.body = body
		var buf bytes.Buffer
		if err := writeSharesFrame(&buf, tag, sf); err != nil {
			return fmt.Errorf("cluster: client to shuffler %d: %w", j, err)
		}
		if err := c.deliver(j, buf.Bytes()); err != nil {
			return err
		}
	}
	return nil
}

// deliver queues one serialized frame for shuffler j and writes it,
// healing the connection on failure when retry is enabled. Queue
// before write: a frame that dies in the kernel buffer mid-reset is
// still replayed.
func (c *Client) deliver(j int, frame []byte) error {
	c.queued[j] = append(c.queued[j], frame)
	if c.w[j] != nil {
		if _, err := c.w[j].Write(frame); err == nil {
			return nil
		}
	}
	return c.heal(j)
}

// heal redials shuffler j and replays the current collection's queue
// under the retry policy.
func (c *Client) heal(j int) error {
	if !c.cfg.Retry.enabled() {
		return fmt.Errorf("cluster: client to shuffler %d: connection failed", j)
	}
	policy := c.cfg.Retry.withDefaults()
	lastErr := errors.New("connection failed")
	for k := 1; k < policy.Attempts; k++ {
		time.Sleep(policy.backoff(k - 1))
		if c.conns[j] != nil {
			c.conns[j].Close()
			c.conns[j] = nil
			c.w[j] = nil
		}
		conn, err := dialRetry(c.cfg.Dial, c.cfg.Topology.Shufflers[j], defaultDialTimeout)
		if err != nil {
			lastErr = err
			continue
		}
		w := bufio.NewWriter(conn)
		if err := c.replay(w, j); err != nil {
			conn.Close()
			lastErr = err
			continue
		}
		c.conns[j] = conn
		c.w[j] = w
		c.reconnects++
		return nil
	}
	return fmt.Errorf("cluster: client to shuffler %d: reconnect failed: %w", j, lastErr)
}

// replay writes the hello and every queued frame of the current
// collection to a fresh connection, flushed. The shuffler's nonce
// dedup drops whatever the dead connection already delivered.
func (c *Client) replay(w *bufio.Writer, j int) error {
	if err := writeHello(w, tagClientHello, 0); err != nil {
		return err
	}
	for _, frame := range c.queued[j] {
		if _, err := w.Write(frame); err != nil {
			return err
		}
	}
	return w.Flush()
}

// Send randomizes v with ldpRand and shares the report as user index.
func (c *Client) Send(index, v int, ldpRand *rng.Rand) error {
	return c.SendReport(index, c.fo().Randomize(v, ldpRand))
}

func (c *Client) fo() ldp.FrequencyOracle { return c.cfg.FO }

// SendValues randomizes values sequentially with ldpRand and shares
// value i as user base+i — the same randomization order as
// protocol.PEOS.Run's user loop, which is what makes a single-client
// cluster run bit-identical to the in-process reference for a shared
// seed.
func (c *Client) SendValues(base int, values []int, ldpRand *rng.Rand) error {
	for i, v := range values {
		if err := c.Send(base+i, v, ldpRand); err != nil {
			return err
		}
	}
	return nil
}

// Flush closes the open frame and pushes buffered frames to every
// shuffler, healing connections that fail mid-flush when retry is
// enabled (bufio surfaces a reset lazily, so the flush is often where a
// mid-collection fault becomes visible). Call it before the analyzer
// seals the round.
func (c *Client) Flush() error {
	if err := c.err; err != nil {
		c.err = nil
		return err
	}
	if err := c.closeFrame(); err != nil {
		return err
	}
	for j := range c.w {
		if c.w[j] == nil {
			if err := c.heal(j); err != nil {
				return err
			}
			continue
		}
		if err := c.w[j].Flush(); err != nil {
			if healErr := c.heal(j); healErr != nil {
				return fmt.Errorf("cluster: client flush to shuffler %d: %w", j, healErr)
			}
		}
	}
	return nil
}

// Close sends the open frame, flushes and closes every shuffler
// connection (EOF is the client's "done"). Safe on a partially-dialed
// client and safe to call more than once.
func (c *Client) Close() error {
	c.stopPool() // idempotent
	first := c.err
	c.err = nil
	if err := c.closeFrame(); err != nil && first == nil {
		first = err
	}
	for j, w := range c.w {
		if w == nil {
			continue
		}
		if err := w.Flush(); err != nil && first == nil {
			first = fmt.Errorf("cluster: client flush to shuffler %d: %w", j, err)
		}
	}
	for _, conn := range c.conns {
		if conn == nil {
			continue
		}
		if err := conn.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
