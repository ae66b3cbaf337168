package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"shuffledp/internal/ahe"
	"shuffledp/internal/ldp"
	"shuffledp/internal/oblivious"
	"shuffledp/internal/rng"
	"shuffledp/internal/transport"
)

// A client's report frame is a shares frame: k users' elements behind
// one [collection][first][nonce] prefix, k implied by the length.
func TestReportFrameRoundTrip(t *testing.T) {
	words := []uint64{0xfeedface, 1, 2}
	for _, c := range []struct {
		tag  uint32
		elem int
		body []byte
		k    int
	}{
		{tagShares, 8, transport.EncodeUint64s(words), 3},
		{tagEncShares, 3, []byte{9, 9, 9, 8, 8, 8}, 2},
		{tagShares, 8, make([]byte, 8*sharesPerFrame), sharesPerFrame},
	} {
		var buf bytes.Buffer
		in := sharesFrame{collection: 3, first: 17, nonce: 0xa1b2c3d4e5f60718, body: c.body}
		if err := writeSharesFrame(&buf, c.tag, in); err != nil {
			t.Fatal(err)
		}
		if buf.Len() != 8+sharesPrefix+len(c.body) {
			t.Fatalf("frame of %d bytes for a %d-byte body", buf.Len(), len(c.body))
		}
		tag, payload, err := transport.ReadTaggedFrameLimit(&buf, 0)
		if err != nil || tag != c.tag {
			t.Fatalf("tag %d err %v", tag, err)
		}
		out, k, err := parseSharesFrame(payload, c.elem)
		if err != nil {
			t.Fatal(err)
		}
		if k != c.k || out.collection != 3 || out.first != 17 || out.nonce != in.nonce || !bytes.Equal(out.body, c.body) {
			t.Fatalf("parsed %+v, k %d", out, k)
		}
	}
}

func TestControlFrameRoundTrips(t *testing.T) {
	g := gen{col: 9, att: 0xdeadbeef}

	var buf bytes.Buffer
	if err := transport.WriteTaggedFrame(&buf, tagSeal, sealPayload(g, 123)); err != nil {
		t.Fatal(err)
	}
	tag, payload, err := transport.ReadTaggedFrameLimit(&buf, 0)
	if err != nil || tag != tagSeal || len(payload) != 12 {
		t.Fatalf("seal frame: tag %d, %d bytes, err %v", tag, len(payload), err)
	}
	if sg, n, err := parseSealFrame(payload); err != nil || sg != g || n != 123 {
		t.Fatalf("seal parsed (%v, %d, %v)", sg, n, err)
	}

	buf.Reset()
	if err := transport.WriteTaggedFrame(&buf, tagAbort, prefixed(g, nil)); err != nil {
		t.Fatal(err)
	}
	tag, payload, err = transport.ReadTaggedFrameLimit(&buf, 0)
	if err != nil || tag != tagAbort {
		t.Fatalf("abort frame: tag %d err %v", tag, err)
	}
	if ag, err := parseAbortFrame(payload); err != nil || ag != g {
		t.Fatalf("abort parsed (%v, %v)", ag, err)
	}

	buf.Reset()
	if err := transport.WriteTaggedFrame(&buf, tagDone, donePayload(42)); err != nil {
		t.Fatal(err)
	}
	tag, payload, err = transport.ReadTaggedFrameLimit(&buf, 0)
	if err != nil || tag != tagDone {
		t.Fatalf("done frame: tag %d err %v", tag, err)
	}
	if col, err := parseDoneFrame(payload); err != nil || col != 42 {
		t.Fatalf("done parsed (%d, %v)", col, err)
	}

	buf.Reset()
	if err := writePeerHello(&buf, 2, g); err != nil {
		t.Fatal(err)
	}
	tag, payload, err = transport.ReadTaggedFrameLimit(&buf, 0)
	if err != nil || tag != tagPeerHello {
		t.Fatalf("peer hello: tag %d err %v", tag, err)
	}
	from, hg, err := parsePeerHello(payload, 3)
	if err != nil || from != 2 || hg != g {
		t.Fatalf("peer hello parsed (%d, %v, %v)", from, hg, err)
	}
	if _, _, err := parsePeerHello(payload, 2); err == nil {
		t.Fatal("peer hello index past the shuffler count accepted")
	}

	body := []byte{1, 2, 3}
	pg, rest, err := splitPrefixed(prefixed(g, body))
	if err != nil || pg != g || !bytes.Equal(rest, body) {
		t.Fatalf("prefixed round trip (%v, %v, %v)", pg, rest, err)
	}
}

func TestWireParseRejectsMalformedFrames(t *testing.T) {
	for name, c := range map[string]struct {
		payload []byte
		elem    int
	}{
		"short prefix":   {make([]byte, 12), 8},
		"no users":       {make([]byte, sharesPrefix), 8},
		"ragged tail":    {make([]byte, sharesPrefix+8*3+5), 8},
		"257 users":      {make([]byte, sharesPrefix+8*(sharesPerFrame+1)), 8},
		"wrapping range": {sharesPayload(1, 1<<32-2, 9, make([]byte, 3*5)), 5},
	} {
		if _, _, err := parseSharesFrame(c.payload, c.elem); !errors.Is(err, errBadFrame) {
			t.Fatalf("shares frame, %s: %v", name, err)
		}
	}
	// The last user may sit at index 2^32−1, not one past it.
	if _, k, err := parseSharesFrame(sharesPayload(1, 1<<32-2, 9, make([]byte, 2*5)), 5); err != nil || k != 2 {
		t.Fatalf("shares frame ending at index 2^32-1: k %d, %v", k, err)
	}
	if _, _, err := parseSealFrame([]byte{1}); !errors.Is(err, errBadFrame) {
		t.Fatalf("short seal: %v", err)
	}
	// The retired layouts are long seals: one with the analyzer count
	// behind n, one with a cut list behind the count.
	for _, size := range []int{14, 22} {
		if _, _, err := parseSealFrame(make([]byte, size)); !errors.Is(err, errBadFrame) {
			t.Fatalf("%d-byte seal: %v", size, err)
		}
	}
	if _, err := parseAbortFrame([]byte{1, 2, 3}); !errors.Is(err, errBadFrame) {
		t.Fatalf("short abort: %v", err)
	}
	if _, err := parseDoneFrame([]byte{1, 2, 3, 4, 5}); !errors.Is(err, errBadFrame) {
		t.Fatalf("long done: %v", err)
	}
	if _, _, err := parsePeerHello(make([]byte, 8), 3); !errors.Is(err, errBadFrame) {
		t.Fatalf("short peer hello: %v", err)
	}
	if _, _, err := splitPrefixed([]byte{1, 2}); !errors.Is(err, errBadFrame) {
		t.Fatalf("short prefix: %v", err)
	}
	if _, err := parseHelloIndex([]byte{5}, 3); err == nil {
		t.Fatal("out-of-range hello index accepted")
	}
	if _, err := parseHelloIndex(nil, 3); err == nil {
		t.Fatal("empty hello accepted")
	}
}

// TestFrameTagsArePinned holds every frame tag to its number. Tags are
// wire format, and deleting a constant from the iota block would
// renumber every tag after it; retired slots keep their numbers.
func TestFrameTagsArePinned(t *testing.T) {
	for _, tc := range []struct {
		name      string
		tag, want uint32
	}{
		{"peerHello", tagPeerHello, 1},
		{"shufflerHello", tagShufflerHello, 2},
		{"clientHello", tagClientHello, 3},
		{"retired report", tagRetiredReport, 4},
		{"retired encReport", tagRetiredEncReport, 5},
		{"seal", tagSeal, 6},
		{"vector", tagVector, 7},
		{"encVector", tagEncVector, 8},
		{"fail", tagFail, 9},
		{"roundPlain", tagRoundPlain, 10},
		{"roundEnc", tagRoundEnc, 11},
		{"roundSeed", tagRoundSeed, 12},
		{"abort", tagAbort, 13},
		{"done", tagDone, 14},
		{"retired shardHello", tagRetiredShardHello, 15},
		{"retired shardWords", tagRetiredShardWords, 16},
		{"shares", tagShares, 17},
		{"encShares", tagEncShares, 18},
		{"goodbye", tagGoodbye, 19},
	} {
		if tc.tag != tc.want {
			t.Errorf("tag %s = %d, want %d", tc.name, tc.tag, tc.want)
		}
	}
}

// TestRetiredShardTagsRefused: the analyzer-shard frames are retired.
// The analyzer's accept path drops a connection that opens with either
// one and files nothing, and a shuffler's control link refuses either
// one as a malformed analyzer frame, which ends its Run.
func TestRetiredShardTagsRefused(t *testing.T) {
	priv, err := ahe.GenerateDGK(512, 64)
	if err != nil {
		t.Fatal(err)
	}
	for name, frame := range map[string]struct {
		tag     uint32
		payload []byte
	}{
		"shardHello": {tagRetiredShardHello, []byte{0, 1, 0, 2}}, // [shard 1][analyzers 2]
		"shardWords": {tagRetiredShardWords, prefixed(gen{}, transport.EncodeUint64s([]uint64{1, 2}))},
	} {
		t.Run(name+"/analyzer accept path", func(t *testing.T) {
			a, err := NewAnalyzer(AnalyzerConfig{
				Topology: Topology{Shufflers: []string{"s0", "s1"}, Analyzers: []string{"127.0.0.1:0"}},
				FO:       ldp.NewGRR(8, 2),
				Priv:     priv,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			conn, err := net.Dial("tcp", a.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if err := transport.WriteTaggedFrame(conn, frame.tag, frame.payload); err != nil {
				t.Fatal(err)
			}
			conn.SetReadDeadline(time.Now().Add(10 * time.Second))
			if _, err := conn.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
				t.Fatalf("read on a refused link: %v, want EOF", err)
			}
			a.mu.Lock()
			filed := slices.ContainsFunc(a.peers, func(l *link) bool { return l != nil })
			a.mu.Unlock()
			if filed {
				t.Fatal("the analyzer filed a link opened with a retired tag")
			}
		})
		t.Run(name+"/shuffler control link", func(t *testing.T) {
			coord := newScriptedCoordinator(t)
			sh, err := NewShuffler(ShufflerConfig{
				Index:    0,
				Topology: Topology{Shufflers: []string{"127.0.0.1:0", "127.0.0.1:0"}, Analyzers: []string{coord.addr()}},
				Pub:      ahe.PublicKey(priv),
				Source:   rng.New(1),
			})
			if err != nil {
				t.Fatal(err)
			}
			defer sh.Close()
			runErr := make(chan error, 1)
			go func() { runErr <- sh.Run() }()
			conn, tag, _ := coord.accept()
			if tag != tagShufflerHello {
				t.Fatalf("shuffler opened its control link with tag %d", tag)
			}
			if err := transport.WriteTaggedFrame(conn, frame.tag, frame.payload); err != nil {
				t.Fatal(err)
			}
			select {
			case err := <-runErr:
				if want := fmt.Sprintf("analyzer sent tag %d", frame.tag); !errors.Is(err, errBadFrame) || !strings.Contains(err.Error(), want) {
					t.Fatalf("Run returned %v, want a malformed-frame error naming %q", err, want)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("the shuffler kept running after a retired tag")
			}
		})
	}
}

func TestCiphertextVectorCodec(t *testing.T) {
	priv, err := ahe.GenerateDGK(512, 64)
	if err != nil {
		t.Fatal(err)
	}
	pub := ahe.PublicKey(priv)
	cts := make([]*ahe.Ciphertext, 3)
	for i := range cts {
		c, err := pub.Encrypt(uint64(100 + i))
		if err != nil {
			t.Fatal(err)
		}
		cts[i] = c
	}
	blob := encodeCiphertexts(pub, cts)
	out, err := decodeCiphertexts(pub, blob)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range out {
		m, err := priv.Decrypt(c)
		if err != nil {
			t.Fatal(err)
		}
		if m != uint64(100+i) {
			t.Fatalf("element %d decrypts to %d", i, m)
		}
	}
	if _, err := decodeCiphertexts(pub, blob[:len(blob)-1]); !errors.Is(err, errBadFrame) {
		t.Fatalf("truncated vector: %v", err)
	}
}

// fuzzCiphertextBytes is the element size FuzzWireFrames splits
// encShares bodies at: the parser only cuts the body, so any size
// exercises it, and a small one keeps 256-user seeds short.
const fuzzCiphertextBytes = 16

// FuzzWireFrames throws arbitrary payloads at every control-plane and
// client-link parser: none may panic, and whatever parses must
// re-encode to the exact payload it parsed from (the parsers are the
// cluster's entire input validation — wire.go's doc comment is the
// format contract).
func FuzzWireFrames(f *testing.F) {
	g := gen{col: 7, att: 0x01020304}
	seed := func(frame func(w *bytes.Buffer) error) []byte {
		var buf bytes.Buffer
		if err := frame(&buf); err != nil {
			f.Fatal(err)
		}
		_, payload, err := transport.ReadTaggedFrameLimit(&buf, 0)
		if err != nil {
			f.Fatal(err)
		}
		return payload
	}
	f.Add(uint8(0), seed(func(w *bytes.Buffer) error { return writePeerHello(w, 2, g) }))
	f.Add(uint8(1), seed(func(w *bytes.Buffer) error { return transport.WriteTaggedFrame(w, tagSeal, sealPayload(g, 100)) }))
	f.Add(uint8(2), seed(func(w *bytes.Buffer) error { return transport.WriteTaggedFrame(w, tagAbort, prefixed(g, nil)) }))
	f.Add(uint8(3), seed(func(w *bytes.Buffer) error { return transport.WriteTaggedFrame(w, tagDone, donePayload(7)) }))
	f.Add(uint8(4), seed(func(w *bytes.Buffer) error {
		return writeSharesFrame(w, tagShares, sharesFrame{collection: 7, first: 3, nonce: 99, body: transport.EncodeUint64s([]uint64{12345})})
	}))
	f.Add(uint8(5), seed(func(w *bytes.Buffer) error {
		return writeSharesFrame(w, tagEncShares, sharesFrame{collection: 7, first: 3, nonce: 99, body: make([]byte, 3*fuzzCiphertextBytes)})
	}))
	f.Add(uint8(6), prefixed(g, []byte{8, 8, 8}))
	// The retired seal layout, with its u16 analyzer count: refused.
	f.Add(uint8(1), append(sealPayload(g, 100), 0, 1))
	f.Fuzz(func(t *testing.T, kind uint8, payload []byte) {
		// Kind 7 was the retired analyzer-shard hello; it stays a slot of
		// its own so every checked-in corpus file still reaches the parser
		// it was found for.
		switch kind % 8 {
		case 0:
			from, hg, err := parsePeerHello(payload, 8)
			if err != nil {
				return
			}
			var buf bytes.Buffer
			if err := writePeerHello(&buf, from, hg); err != nil {
				t.Fatal(err)
			}
			_, re, _ := transport.ReadTaggedFrameLimit(&buf, 0)
			if !bytes.Equal(re, payload) {
				t.Fatalf("peer hello re-encode mismatch: %x vs %x", re, payload)
			}
		case 1:
			sg, n, err := parseSealFrame(payload)
			if err != nil {
				return
			}
			var buf bytes.Buffer
			if err := transport.WriteTaggedFrame(&buf, tagSeal, sealPayload(sg, n)); err != nil {
				t.Fatal(err)
			}
			_, re, _ := transport.ReadTaggedFrameLimit(&buf, 0)
			if !bytes.Equal(re, payload) {
				t.Fatalf("seal re-encode mismatch: %x vs %x", re, payload)
			}
		case 2:
			ag, err := parseAbortFrame(payload)
			if err != nil {
				return
			}
			var buf bytes.Buffer
			if err := transport.WriteTaggedFrame(&buf, tagAbort, prefixed(ag, nil)); err != nil {
				t.Fatal(err)
			}
			_, re, _ := transport.ReadTaggedFrameLimit(&buf, 0)
			if !bytes.Equal(re, payload) {
				t.Fatalf("abort re-encode mismatch: %x vs %x", re, payload)
			}
		case 3:
			col, err := parseDoneFrame(payload)
			if err != nil {
				return
			}
			var buf bytes.Buffer
			if err := transport.WriteTaggedFrame(&buf, tagDone, donePayload(col)); err != nil {
				t.Fatal(err)
			}
			_, re, _ := transport.ReadTaggedFrameLimit(&buf, 0)
			if !bytes.Equal(re, payload) {
				t.Fatalf("done re-encode mismatch: %x vs %x", re, payload)
			}
		case 4, 5:
			tag, elem := tagShares, 8
			if kind%8 == 5 {
				tag, elem = tagEncShares, fuzzCiphertextBytes
			}
			sf, k, err := parseSharesFrame(payload, elem)
			if err != nil {
				return
			}
			if k < 1 || k > sharesPerFrame || k*elem != len(sf.body) || uint64(sf.first)+uint64(k) > 1<<32 {
				t.Fatalf("parseSharesFrame accepted %d users of %d bytes at %d from %d body bytes", k, elem, sf.first, len(sf.body))
			}
			var buf bytes.Buffer
			if err := writeSharesFrame(&buf, tag, sf); err != nil {
				t.Fatal(err)
			}
			_, re, _ := transport.ReadTaggedFrameLimit(&buf, 0)
			if !bytes.Equal(re, payload) {
				t.Fatalf("shares re-encode mismatch: %x vs %x", re, payload)
			}
		case 6:
			pg, body, err := splitPrefixed(payload)
			if err != nil {
				return
			}
			if !bytes.Equal(prefixed(pg, body), payload) {
				t.Fatal("prefixed re-encode mismatch")
			}
		}
	})
}

// TestConnTransportFrameDiscipline drives connTransport.Recv over
// net.Pipe with hand-written mesh frames: the ceiling is the round's
// vector length (a full ciphertext vector passes, one byte more is
// refused on the header alone), and the tags of the retired
// chunk-streamed framing are refused, not reassembled.
func TestConnTransportFrameDiscipline(t *testing.T) {
	priv, err := ahe.GenerateDGK(512, 64)
	if err != nil {
		t.Fatal(err)
	}
	pub := ahe.PublicKey(priv)
	const total = 3
	cts := make([]*ahe.Ciphertext, total)
	for i := range cts {
		if cts[i], err = pub.Encrypt(uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	// recvAfter hands peer 1's end of a fresh pipe to write, and returns
	// what party 0 receives.
	recvAfter := func(write func(peer net.Conn) error) (oblivious.Msg, error) {
		mine, peer := net.Pipe()
		defer mine.Close()
		defer peer.Close()
		werr := make(chan error, 1)
		go func() { werr <- write(peer) }()
		m, err := newConnTransport([]net.Conn{nil, mine}, pub, total, time.Second).Recv(1)
		if e := <-werr; e != nil {
			t.Fatalf("writer: %v", e)
		}
		return m, err
	}

	m, err := recvAfter(func(peer net.Conn) error {
		return newConnTransport([]net.Conn{peer, nil}, pub, total, time.Second).
			Send(0, oblivious.Msg{Kind: oblivious.MsgEnc, Round: 2, Enc: cts})
	})
	if err != nil || m.Kind != oblivious.MsgEnc || m.Round != 2 || len(m.Enc) != total {
		t.Fatalf("full-length ciphertext vector: %+v, %v", m, err)
	}

	// Only the 8-byte header is ever written: the refusal cannot have
	// waited for, let alone buffered, a payload.
	_, err = recvAfter(func(peer net.Conn) error {
		var hdr [8]byte
		binary.BigEndian.PutUint32(hdr[:4], uint32(4+total*pub.CiphertextBytes()+1))
		binary.BigEndian.PutUint32(hdr[4:], tagRoundEnc)
		_, err := peer.Write(hdr[:])
		return err
	})
	if !errors.Is(err, errBadFrame) || !errors.Is(err, transport.ErrFrameTooLarge) {
		t.Fatalf("frame one byte over the round's ceiling: %v", err)
	}

	for _, retired := range []uint32{20, 21} { // roundPlainMore, roundEncMore
		_, err := recvAfter(func(peer net.Conn) error {
			return transport.WriteTaggedFrame(peer, retired, make([]byte, 12))
		})
		if !errors.Is(err, errBadFrame) || !strings.Contains(err.Error(), "during the shuffle") {
			t.Fatalf("retired tag %d: %v", retired, err)
		}
	}
}
