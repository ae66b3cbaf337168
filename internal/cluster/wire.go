package cluster

// Wire format. Every cluster message is one transport tagged frame:
// the 32-bit tag is the message kind, the payload layouts are below
// (integers big-endian, share words little-endian via
// transport.EncodeUint64s, matching the rest of the repository).
//
//	peerHello      [from u8][collection u32][attempt u32]   shuffler -> shuffler
//	shufflerHello  [index u8]                               shuffler -> analyzer
//	clientHello    []                                       client   -> shuffler
//	shares         [collection u32][first u32][nonce u64][shares u64le ...]
//	                                                        client   -> shuffler
//	encShares      [collection u32][first u32][nonce u64][cts ...]
//	                                                        client   -> shuffler R-1
//	seal           [collection u32][attempt u32][n u32]     analyzer -> shuffler
//	abort          [collection u32][attempt u32]            analyzer -> shuffler
//	done           [collection u32]                         analyzer -> shuffler
//	goodbye        []                                       analyzer -> shuffler
//	vector         [collection u32][attempt u32][words ...] shuffler -> analyzer
//	encVector      [collection u32][attempt u32][cts ...]   shuffler -> analyzer
//	fail           [collection u32][attempt u32][utf8 msg]  shuffler -> analyzer
//	roundPlain     [round u32][words ...]                   EOS peer traffic
//	roundEnc       [round u32][cts ...]                     EOS peer traffic
//	roundSeed      [round u32][seed u64be]                  EOS peer traffic
//
// Ciphertext vectors are the fixed-size ahe serialization
// concatenated, so the element count is implied by the payload length.
// The same holds for a client's shares / encShares frame: it carries
// the shares of k ≤ sharesPerFrame consecutive users first..first+k−1
// of one collection, k words or k ciphertexts. Tags 4 and 5, the
// retired one-share-per-frame report / encReport, are refused by name.
// Tags 15 and 16, the retired analyzer-shard hello and words frames,
// are refused like any tag the reader does not expect.
//
// Who puts frames on which wire: control frames and the post-shuffle
// vectors cross a link (link.go), EOS peer traffic the attempt's mesh
// connections (connTransport, below), client shares a pipeline.Reader.
// Every reader states the longest frame its peer may legitimately send
// and refuses a longer length prefix unread; DESIGN.md §9 has the table
// (every EOS vector travels as one frame, which is what lets a shuffler
// know the mesh bound before the shuffle starts).
//
// The self-healing fields: a peer hello names the exact collection
// attempt its mesh connection serves, so a connection left over from
// an aborted round can never be mistaken for a live one; seal, abort,
// vector, and fail all carry the (collection, attempt) generation so
// both ends skip stale frames; a shares frame carries the client's
// nonce base — user first+i carries nonce+i — which lets a reconnecting
// client resubmit its whole collection and the shuffler deduplicate
// idempotently, user by user (same nonce = the retransmit it is,
// different nonce at a taken index = a conflicting report, dropped with
// its connection).

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"shuffledp/internal/ahe"
	"shuffledp/internal/oblivious"
	"shuffledp/internal/transport"
)

// Message kinds (frame tags). The numbers are wire format:
// TestFrameTagsArePinned holds every one, retired slots included.
const (
	tagPeerHello uint32 = iota + 1
	tagShufflerHello
	tagClientHello
	tagRetiredReport    // one share per frame, now tagShares; refused
	tagRetiredEncReport // one ciphertext per frame, now tagEncShares; refused
	tagSeal
	tagVector
	tagEncVector
	tagFail
	tagRoundPlain
	tagRoundEnc
	tagRoundSeed
	tagAbort
	tagDone
	tagRetiredShardHello // an analyzer shard's hello; refused
	tagRetiredShardWords // an analyzer shard's revealed window; refused
	tagShares
	tagEncShares
	tagGoodbye
)

// sharesPerFrame is the most users one shares / encShares frame
// carries: a client closes a frame at this many users, so a client
// reader's bound is sharesPrefix + sharesPerFrame·(8 or CiphertextBytes).
const sharesPerFrame = 256

// sharesPrefix is the [collection][first][nonce] head of a shares frame.
const sharesPrefix = 16

// errBadFrame wraps every malformed-payload failure so callers can
// distinguish protocol violations from transport errors.
var errBadFrame = errors.New("cluster: malformed frame")

// helloPayload is a shuffler's (and, index ignored, a client's) hello.
func helloPayload(index int) []byte { return []byte{byte(index)} }

func writeHello(w io.Writer, tag uint32, index int) error {
	return transport.WriteTaggedFrame(w, tag, helloPayload(index))
}

func parseHelloIndex(payload []byte, limit int) (int, error) {
	if len(payload) != 1 || int(payload[0]) >= limit {
		return 0, fmt.Errorf("%w: bad hello index", errBadFrame)
	}
	return int(payload[0]), nil
}

// writePeerHello announces a mesh connection serving one collection
// attempt.
func writePeerHello(w io.Writer, from int, g gen) error {
	var payload [9]byte
	payload[0] = byte(from)
	binary.BigEndian.PutUint32(payload[1:], g.col)
	binary.BigEndian.PutUint32(payload[5:], g.att)
	return transport.WriteTaggedFrame(w, tagPeerHello, payload[:])
}

func parsePeerHello(payload []byte, limit int) (from int, g gen, err error) {
	if len(payload) != 9 || int(payload[0]) >= limit {
		return 0, gen{}, fmt.Errorf("%w: bad peer hello", errBadFrame)
	}
	return int(payload[0]), gen{
		col: binary.BigEndian.Uint32(payload[1:]),
		att: binary.BigEndian.Uint32(payload[5:]),
	}, nil
}

// sharesFrame is one client frame: the shares of users first..first+k−1
// of one collection, user first+i under nonce+i (its resubmit dedup key).
type sharesFrame struct {
	collection uint32
	first      uint32
	nonce      uint64
	body       []byte // k words or k ciphertexts, elem bytes each
}

func writeSharesFrame(w io.Writer, tag uint32, sf sharesFrame) error {
	payload := binary.BigEndian.AppendUint32(make([]byte, 0, sharesPrefix+len(sf.body)), sf.collection)
	payload = binary.BigEndian.AppendUint32(payload, sf.first)
	payload = binary.BigEndian.AppendUint64(payload, sf.nonce)
	return transport.WriteTaggedFrame(w, tag, append(payload, sf.body...))
}

// parseSharesFrame splits a shares / encShares payload of elem-byte
// elements and returns it with its user count k. It refuses an empty
// or ragged body, more than sharesPerFrame users, and a user range that
// would run past index 2^32−1. The body aliases the payload.
func parseSharesFrame(payload []byte, elem int) (sharesFrame, int, error) {
	if len(payload) < sharesPrefix {
		return sharesFrame{}, 0, fmt.Errorf("%w: short shares frame", errBadFrame)
	}
	sf := sharesFrame{
		collection: binary.BigEndian.Uint32(payload[0:]),
		first:      binary.BigEndian.Uint32(payload[4:]),
		nonce:      binary.BigEndian.Uint64(payload[8:]),
		body:       payload[sharesPrefix:],
	}
	k := len(sf.body) / elem
	switch {
	case k == 0 || len(sf.body)%elem != 0:
		return sharesFrame{}, 0, fmt.Errorf("%w: shares frame body of %d bytes is not 1..%d elements of %d", errBadFrame, len(sf.body), sharesPerFrame, elem)
	case k > sharesPerFrame:
		return sharesFrame{}, 0, fmt.Errorf("%w: shares frame carries %d users, at most %d", errBadFrame, k, sharesPerFrame)
	case uint64(sf.first)+uint64(k) > 1<<32:
		return sharesFrame{}, 0, fmt.Errorf("%w: shares frame users %d+%d wrap past index 2^32-1", errBadFrame, sf.first, k)
	}
	return sf, k, nil
}

// sealPayload opens collection attempt g over n users at a shuffler.
func sealPayload(g gen, n int) []byte {
	payload := make([]byte, 12)
	binary.BigEndian.PutUint32(payload[0:], g.col)
	binary.BigEndian.PutUint32(payload[4:], g.att)
	binary.BigEndian.PutUint32(payload[8:], uint32(n))
	return payload
}

func parseSealFrame(payload []byte) (g gen, n int, err error) {
	if len(payload) != 12 {
		return gen{}, 0, fmt.Errorf("%w: bad seal frame", errBadFrame)
	}
	return gen{
		col: binary.BigEndian.Uint32(payload[0:]),
		att: binary.BigEndian.Uint32(payload[4:]),
	}, int(binary.BigEndian.Uint32(payload[8:])), nil
}

// parseAbortFrame reads the frame that tells a shuffler to
// cancel one collection attempt; its payload is prefixed(g, nil).
func parseAbortFrame(payload []byte) (gen, error) {
	if len(payload) != 8 {
		return gen{}, fmt.Errorf("%w: bad abort frame", errBadFrame)
	}
	return gen{
		col: binary.BigEndian.Uint32(payload[0:]),
		att: binary.BigEndian.Uint32(payload[4:]),
	}, nil
}

// donePayload tells a shuffler a collection sealed durably:
// whatever it still buffers through that collection can go.
func donePayload(collection uint32) []byte {
	return binary.BigEndian.AppendUint32(nil, collection)
}

func parseDoneFrame(payload []byte) (uint32, error) {
	if len(payload) != 4 {
		return 0, fmt.Errorf("%w: bad done frame", errBadFrame)
	}
	return binary.BigEndian.Uint32(payload), nil
}

// prefixed returns a payload of [collection u32][attempt u32][body].
func prefixed(g gen, body []byte) []byte {
	payload := make([]byte, 8+len(body))
	binary.BigEndian.PutUint32(payload, g.col)
	binary.BigEndian.PutUint32(payload[4:], g.att)
	copy(payload[8:], body)
	return payload
}

func splitPrefixed(payload []byte) (gen, []byte, error) {
	if len(payload) < 8 {
		return gen{}, nil, fmt.Errorf("%w: missing generation prefix", errBadFrame)
	}
	return gen{
		col: binary.BigEndian.Uint32(payload),
		att: binary.BigEndian.Uint32(payload[4:]),
	}, payload[8:], nil
}

// encodeCiphertexts concatenates the fixed-size serializations.
func encodeCiphertexts(pub ahe.PublicKey, cts []*ahe.Ciphertext) []byte {
	size := pub.CiphertextBytes()
	out := make([]byte, 0, size*len(cts))
	for _, c := range cts {
		out = append(out, pub.Serialize(c)...)
	}
	return out
}

// decodeCiphertexts reverses encodeCiphertexts. Every element gets the
// checks a single Deserialize would run; the key batches the ones it
// can (one unit test per vector).
func decodeCiphertexts(pub ahe.PublicKey, data []byte) ([]*ahe.Ciphertext, error) {
	out, err := pub.DeserializeVector(data)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errBadFrame, err)
	}
	return out, nil
}

// connTransport adapts the shuffler's peer connections to
// oblivious.Transport. peers[j] is the connection to party j (nil at
// the own index). Sends and receives for one peer never run
// concurrently with each other from the engine (per-phase discipline),
// but a send goroutine and the receive loop run at once for DIFFERENT
// peers, so each direction only needs per-connection serialization.
//
// timeout bounds each individual message exchange. The engine receives
// at most one message per peer per phase and a message is one frame
// under one absolute deadline, so a phase is bounded by (r-1)·timeout
// and needs no deadline of its own; the round is bounded by the
// analyzer's CollectTimeout abort.
//
// Inbound frames are capped at frameLimit, the longest payload the
// round can legitimately carry — the round prefix plus one whole
// vector in its wider encoding — so a hostile peer's length prefix is
// refused before any of its payload is buffered.
type connTransport struct {
	peers      []net.Conn
	pub        ahe.PublicKey
	frameLimit int
	timeout    time.Duration // per-message I/O deadline, 0 = none
	sendMu     []sync.Mutex
}

// newConnTransport serves one shuffle of a total-element vector.
func newConnTransport(peers []net.Conn, pub ahe.PublicKey, total int, timeout time.Duration) *connTransport {
	return &connTransport{
		peers:      peers,
		pub:        pub,
		frameLimit: 4 + total*max(8, pub.CiphertextBytes()),
		timeout:    timeout,
		sendMu:     make([]sync.Mutex, len(peers)),
	}
}

func (t *connTransport) conn(p int) (net.Conn, error) {
	if p < 0 || p >= len(t.peers) || t.peers[p] == nil {
		return nil, fmt.Errorf("cluster: no connection to shuffler %d", p)
	}
	return t.peers[p], nil
}

// Send implements oblivious.Transport.
func (t *connTransport) Send(to int, m oblivious.Msg) error {
	conn, err := t.conn(to)
	if err != nil {
		return err
	}
	t.sendMu[to].Lock()
	defer t.sendMu[to].Unlock()
	if t.timeout > 0 {
		if err := conn.SetWriteDeadline(time.Now().Add(t.timeout)); err != nil {
			return err
		}
	}
	var round [4]byte
	binary.BigEndian.PutUint32(round[:], uint32(m.Round))
	switch m.Kind {
	case oblivious.MsgPlain:
		return transport.WriteTaggedFrame(conn, tagRoundPlain, append(round[:], transport.EncodeUint64s(m.Words)...))
	case oblivious.MsgEnc:
		return transport.WriteTaggedFrame(conn, tagRoundEnc, append(round[:], encodeCiphertexts(t.pub, m.Enc)...))
	case oblivious.MsgSeed:
		payload := make([]byte, 12)
		copy(payload, round[:])
		binary.BigEndian.PutUint64(payload[4:], m.Seed)
		return transport.WriteTaggedFrame(conn, tagRoundSeed, payload)
	}
	return fmt.Errorf("cluster: unknown message kind %d", m.Kind)
}

// Recv implements oblivious.Transport.
func (t *connTransport) Recv(from int) (oblivious.Msg, error) {
	conn, err := t.conn(from)
	if err != nil {
		return oblivious.Msg{}, err
	}
	if t.timeout > 0 {
		if err := conn.SetReadDeadline(time.Now().Add(t.timeout)); err != nil {
			return oblivious.Msg{}, err
		}
	}
	tag, payload, err := transport.ReadTaggedFrameLimit(conn, t.frameLimit)
	if errors.Is(err, transport.ErrFrameTooLarge) {
		return oblivious.Msg{}, fmt.Errorf("%w: shuffler %d: %w", errBadFrame, from, err)
	}
	if err != nil {
		return oblivious.Msg{}, err
	}
	if len(payload) < 4 {
		return oblivious.Msg{}, fmt.Errorf("%w: short round message", errBadFrame)
	}
	m := oblivious.Msg{Round: int(binary.BigEndian.Uint32(payload))}
	body := payload[4:]
	switch tag {
	case tagRoundPlain:
		m.Kind = oblivious.MsgPlain
		if m.Words, err = transport.DecodeUint64s(body); err != nil {
			return oblivious.Msg{}, err
		}
	case tagRoundEnc:
		m.Kind = oblivious.MsgEnc
		if m.Enc, err = decodeCiphertexts(t.pub, body); err != nil {
			return oblivious.Msg{}, err
		}
	case tagRoundSeed:
		m.Kind = oblivious.MsgSeed
		if len(body) != 8 {
			return oblivious.Msg{}, fmt.Errorf("%w: bad seed message", errBadFrame)
		}
		m.Seed = binary.BigEndian.Uint64(body)
	default:
		return oblivious.Msg{}, fmt.Errorf("%w: unexpected tag %d during the shuffle", errBadFrame, tag)
	}
	return m, nil
}
