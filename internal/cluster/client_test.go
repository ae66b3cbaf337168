package cluster_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"shuffledp/internal/ahe"
	"shuffledp/internal/cluster"
	"shuffledp/internal/ldp"
	"shuffledp/internal/rng"
)

// linkRecorder keeps every byte a client writes, per shuffler address.
type linkRecorder struct {
	mu    sync.Mutex
	links map[string]*bytes.Buffer
}

type recordedConn struct {
	net.Conn
	rec  *linkRecorder
	addr string
}

func (c recordedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.rec.mu.Lock()
	c.rec.links[c.addr].Write(p[:n])
	c.rec.mu.Unlock()
	return n, err
}

// dial is a cluster.DialFunc over plain TCP that records what is written.
func (r *linkRecorder) dial(addr string, timeout time.Duration) (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	if r.links == nil {
		r.links = map[string]*bytes.Buffer{}
	}
	if r.links[addr] == nil {
		r.links[addr] = new(bytes.Buffer)
	}
	r.mu.Unlock()
	return recordedConn{Conn: conn, rec: r, addr: addr}, nil
}

func (r *linkRecorder) bytes(addr string) []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	return bytes.Clone(r.links[addr].Bytes())
}

func (r *linkRecorder) total() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	sum := 0
	for _, b := range r.links {
		sum += b.Len()
	}
	return sum
}

// The client link carries frames, not reports: a user costs its r−1
// words and one ciphertext — Table III's 8(r−1)+|ct| — and a link adds
// one 24-byte frame head (8-byte transport header, collection, first
// index, nonce base) per SharesPerFrame users and its 9-byte hello.
// Counted exactly at the client's sockets, at frame boundaries and far
// from them; each collection must still seal.
func TestClientLinkBytesPerReport(t *testing.T) {
	const (
		d  = 8
		nr = 2
	)
	priv := sharedKey(t)
	fo := ldp.NewGRR(d, 2)
	ct := priv.CiphertextBytes()
	for _, r := range []int{2, 3} {
		h := startCluster(t, r, nr, fo, priv, 500+uint64(r), nil, nil)
		for c, n := range []int{1, 255, 256, 257, 3000} {
			var rec linkRecorder
			cl, err := cluster.NewClient(cluster.ClientConfig{
				Topology: h.topo, FO: fo, Pub: ahe.PublicKey(priv), Source: rng.New(uint64(c)), Dial: rec.dial,
			})
			if err != nil {
				t.Fatal(err)
			}
			cl.SetCollection(c)
			if err := cl.SendValues(0, synthValues(n, d, uint64(n)), rng.New(uint64(n)+1)); err != nil {
				t.Fatal(err)
			}
			if err := cl.Flush(); err != nil {
				t.Fatal(err)
			}
			if _, err := h.analyzer.Collect(n); err != nil {
				t.Fatalf("r=%d n=%d: %v", r, n, err)
			}
			if err := cl.Close(); err != nil {
				t.Fatal(err)
			}
			frames := (n + cluster.SharesPerFrame - 1) / cluster.SharesPerFrame
			want := n*(8*(r-1)+ct) + frames*r*24 + r*9
			if got := rec.total(); got != want {
				t.Fatalf("r=%d n=%d: the client link carried %d bytes, want %d (%d frames per link)", r, n, got, want, frames)
			}
			t.Logf("r=%d n=%d: %d bytes, %.2f per user against %d of payload", r, n, want, float64(want)/float64(n), 8*(r-1)+ct)
		}
	}
}

// A user index is a u32 on the wire. One outside [0, 2^32) used to wrap
// (−1 became 4294967295, which the shuffler buffered and no seal could
// ever use up); now it is refused before a share is drawn, so the
// Source stream has not moved and the next honest report carries
// exactly the shares a fresh client's first report does.
func TestClientRefusesIndexOutsideWord(t *testing.T) {
	priv := sharedKey(t)
	fo := ldp.NewGRR(8, 2)
	topo := discardingShufflers(t, 2)
	rep := fo.Randomize(3, rng.New(1))
	// firstShare returns the client's link-0 share of user 0.
	firstShare := func(misuse func(*cluster.Client)) []byte {
		var rec linkRecorder
		cl, err := cluster.NewClient(cluster.ClientConfig{Topology: topo, FO: fo, Pub: ahe.PublicKey(priv), Source: rng.New(5), Dial: rec.dial})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		misuse(cl)
		if err := cl.SendReport(0, rep); err != nil {
			t.Fatal(err)
		}
		if err := cl.Flush(); err != nil {
			t.Fatal(err)
		}
		link := rec.bytes(topo.Shufflers[0])
		const hello, head = 9, 24
		if len(link) != hello+head+8 {
			t.Fatalf("link 0 carried %d bytes, want one hello and one one-user frame", len(link))
		}
		if first := binary.BigEndian.Uint32(link[hello+12:]); first != 0 {
			t.Fatalf("the frame starts at user %d", first)
		}
		return link[hello+head:]
	}
	outside := []int{-1, math.MinInt}
	if wide := int64(math.MaxUint32) + 1; int64(int(wide)) == wide {
		outside = append(outside, int(wide))
	}
	got := firstShare(func(cl *cluster.Client) {
		for _, idx := range outside {
			err := cl.SendReport(idx, rep)
			if err == nil || !strings.Contains(err.Error(), "outside [0, 2^32)") {
				t.Fatalf("SendReport(%d): %v, want a refusal", idx, err)
			}
		}
	})
	want := firstShare(func(*cluster.Client) {})
	if !bytes.Equal(got, want) {
		t.Fatalf("after the refusals the share is %x, a fresh client's is %x: the refusal drew from Source", got, want)
	}
}

// discardingShufflers binds r shuffler addresses whose listeners accept
// clients and read everything they send, answering nothing.
func discardingShufflers(t *testing.T, r int) cluster.Topology {
	topo, slns, aln := bindTopology(t, r)
	aln.Close()
	for _, ln := range slns {
		go func() {
			for {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				go func() { _, _ = io.Copy(io.Discard, conn); conn.Close() }()
			}
		}()
		t.Cleanup(func() { ln.Close() })
	}
	return topo
}

var errInjectedEncrypt = errors.New("cluster test: injected EncryptChunk fault")

// failingEncrypt is a public key whose EncryptChunk always fails.
type failingEncrypt struct{ ahe.PublicKey }

func (failingEncrypt) EncryptChunk([]*ahe.Ciphertext, []uint64, *ahe.Scratch) error {
	return errInjectedEncrypt
}

// The client encrypts a frame's last shares when the frame closes, so
// an encryption error returns from whichever call closes it: the
// SendReport that fills the frame or breaks its run, Flush, Close, or —
// since it returns nothing — SetCollection, whose error the next Flush
// returns. The reports before it return nil.
func TestClientEncryptErrorReturnsFromFrameClose(t *testing.T) {
	priv := sharedKey(t)
	fo := ldp.NewGRR(8, 2)
	topo := discardingShufflers(t, 2)
	cl, err := cluster.NewClient(cluster.ClientConfig{Topology: topo, FO: fo, Pub: failingEncrypt{priv}, Source: rng.New(5)})
	if err != nil {
		t.Fatal(err)
	}
	rep := fo.Randomize(3, rng.New(1))
	for i := range cluster.SharesPerFrame - 1 {
		if err := cl.SendReport(i, rep); err != nil {
			t.Fatalf("SendReport(%d) into an open frame: %v", i, err)
		}
	}
	closers := []struct {
		name  string
		close func() error
	}{
		{"the SendReport that fills the frame", func() error { return cl.SendReport(cluster.SharesPerFrame-1, rep) }},
		{"the SendReport that breaks the run", func() error { return cl.SendReport(0, rep) }},
		{"Flush", cl.Flush},
		{"SetCollection, then Flush", func() error { cl.SetCollection(1); return cl.Flush() }},
		{"Close", cl.Close},
	}
	for i, c := range closers {
		if i > 0 {
			if err := cl.SendReport(1000, rep); err != nil {
				t.Fatalf("SendReport into a fresh frame before %s: %v", c.name, err)
			}
		}
		if err := c.close(); !errors.Is(err, errInjectedEncrypt) {
			t.Fatalf("%s: %v, want the encryption error", c.name, err)
		}
	}
}
