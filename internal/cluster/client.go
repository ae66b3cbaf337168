package cluster

import (
	"bufio"
	"bytes"
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
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
	// DialTimeout bounds each connection establishment (0 =
	// DefaultDialTimeout).
	DialTimeout time.Duration
	// Dial, when non-nil, replaces net.DialTimeout — the chaos-
	// injection hook (faultnet.Network.Dial fits).
	Dial DialFunc
	// Retry, when enabled (Attempts > 1), makes the client
	// self-healing: a shuffler connection that fails is redialed with
	// jittered backoff and the current collection's frames are replayed
	// in full. The per-report nonces make the replay idempotent at the
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
// together cannot reconstruct it. A Client is not safe for concurrent
// use; run one per goroutine.
type Client struct {
	cfg   ClientConfig
	enc   *ldp.WordEncoder
	mod   secretshare.Modulus
	conns []net.Conn
	w     []*bufio.Writer
	col   uint32
	// queued[j] holds the serialized report frames already produced for
	// shuffler j in the current collection — exactly the bytes a healed
	// connection replays. The share splits (and the encryption) were
	// drawn when the frame was built, so a resubmit carries identical
	// shares and the randomness stream position never depends on how
	// many times the network failed.
	queued [][][]byte
	// nonce is the next report nonce: a crypto/rand base plus a
	// sequence counter, unique per report across reconnects (and, with
	// overwhelming probability, across clients). Deliberately not drawn
	// from Source: that stream's position must match the in-process
	// reference's split-for-split.
	nonce      uint64
	reconnects int
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
	if s, ok := ldp.SupportOf(cfg.FO); !ok || s.U == 0 {
		return nil, fmt.Errorf("cluster: oracle %s has no fake-corrected estimator (Equation 6)", cfg.FO.Name())
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
		nonce:  binary.LittleEndian.Uint64(seed[:]),
	}
	// Every report encrypts one share; keep randomizers h^r precomputed
	// in the background for the lifetime of the client. The pool draws
	// from crypto/rand only, never cfg.Source, so shares stay
	// bit-identical to the in-process reference run.
	c.stopPool = cfg.Pub.StartRandomizerPool()
	for _, addr := range cfg.Topology.Shufflers {
		conn, err := dialRetry(cfg.Dial, addr, cfg.DialTimeout)
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

// DialClient is the single-shot constructor: no reconnect, no default
// chaos hooks — each frame is reported at most once and the first
// network error is surfaced.
func DialClient(topo Topology, fo ldp.FrequencyOracle, pub ahe.PublicKey, src secretshare.Source, dialTimeout time.Duration) (*Client, error) {
	return NewClient(ClientConfig{Topology: topo, FO: fo, Pub: pub, Source: src, DialTimeout: dialTimeout})
}

// SetCollection stamps subsequent reports with a collection round id
// (new clients start at round 0). Moving to a new collection drops the
// previous collection's replay queue — it sealed, resubmitting it is
// pointless.
func (c *Client) SetCollection(id int) {
	if uint32(id) == c.col {
		return
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
// exactly once before the analyzer seals the round at n.
func (c *Client) SendReport(index int, rep ldp.Report) error {
	word := c.enc.Encode(rep)
	r := len(c.conns)
	shares := secretshare.Split(word, r, c.mod, c.cfg.Source)
	nonce := c.nonce
	c.nonce++
	for j := 0; j < r-1; j++ {
		var buf bytes.Buffer
		if err := writeReportFrame(&buf, c.col, uint32(index), nonce, shares[j]); err != nil {
			return fmt.Errorf("cluster: client to shuffler %d: %w", j, err)
		}
		if err := c.deliver(j, buf.Bytes()); err != nil {
			return err
		}
	}
	last := r - 1
	ct, err := c.cfg.Pub.Encrypt(shares[last])
	if err != nil {
		return fmt.Errorf("cluster: client encrypt: %w", err)
	}
	var buf bytes.Buffer
	if err := writeEncReportFrame(&buf, c.col, uint32(index), nonce, c.cfg.Pub.Serialize(ct)); err != nil {
		return fmt.Errorf("cluster: client to shuffler %d: %w", last, err)
	}
	return c.deliver(last, buf.Bytes())
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
		conn, err := dialRetry(c.cfg.Dial, c.cfg.Topology.Shufflers[j], c.cfg.DialTimeout)
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

// Flush pushes buffered frames to every shuffler, healing connections
// that fail mid-flush when retry is enabled (bufio surfaces a reset
// lazily, so the flush is often where a mid-collection fault becomes
// visible). Call it before the analyzer seals the round.
func (c *Client) Flush() error {
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

// Close flushes and closes every shuffler connection (EOF is the
// client's "done"). Safe on a partially-dialed client and safe to call
// more than once.
func (c *Client) Close() error {
	c.stopPool() // idempotent
	var first error
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
