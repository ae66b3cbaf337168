package cluster

// Follower conformance: one scripted analyzer walks a shuffler's
// follower (follower.go) over loopback through the control-plane table
// — supersede by generation, stale aborts and seals ignored, done
// pruning, a reset link canceling and redialing, one fail notice per
// failing attempt — and then through the policy points the shuffler
// keeps for itself: what the analyzer's goodbye, a close without one
// and a malformed analyzer frame mean for the node's lifetime. CI runs
// this file under -race as a named gate.

import (
	"bytes"
	"errors"
	"net"
	"os"
	"runtime"
	"testing"
	"time"

	"shuffledp/internal/ahe"
	"shuffledp/internal/rng"
	"shuffledp/internal/transport"
)

// scriptedCoordinator is a hand-driven analyzer: a loopback listener
// the node under test dials, handing the test each inbound link and the
// hello that opened it.
type scriptedCoordinator struct {
	t  *testing.T
	ln net.Listener
}

func newScriptedCoordinator(t *testing.T) *scriptedCoordinator {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	return &scriptedCoordinator{t: t, ln: ln}
}

func (c *scriptedCoordinator) addr() string { return c.ln.Addr().String() }

// accept returns the node's next inbound connection and the hello it
// opened it with.
func (c *scriptedCoordinator) accept() (net.Conn, uint32, []byte) {
	c.t.Helper()
	c.ln.(*net.TCPListener).SetDeadline(time.Now().Add(10 * time.Second))
	conn, err := c.ln.Accept()
	if err != nil {
		c.t.Fatalf("the node never dialed: %v", err)
	}
	c.t.Cleanup(func() { conn.Close() })
	tag, payload, err := transport.ReadTaggedFrameLimit(conn, 0)
	if err != nil {
		c.t.Fatal(err)
	}
	return conn, tag, payload
}

// eventually polls cond for up to ten seconds.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("never happened: %s", what)
		}
	}
}

// followerRole is what the script needs from a node beyond its
// follower: the hello it must open with, ways to hand it the data its
// attempts wait on, and the two policy outcomes.
type followerRole struct {
	f        *follower
	helloTag uint32
	hello    []byte
	// plant gives the node one piece of collection g.col's data — not
	// enough to complete an attempt — and holds reports whether the node
	// still keeps anything for that collection.
	plant func(g gen)
	holds func(col uint32) bool
	// spoil hands the node data that makes attempt g (sealed at n = 1)
	// fail on its own, at once.
	spoil func(g gen)
	// exited reports whether the node's control loop has ended, and with
	// what.
	exited <-chan error
	close  func()
}

func startShufflerRole(t *testing.T, priv *ahe.DGKPrivateKey, coord string) followerRole {
	sh, err := NewShuffler(ShufflerConfig{
		Index:       0,
		Topology:    Topology{Shufflers: []string{"127.0.0.1:0", "127.0.0.1:1"}, Analyzers: []string{coord}},
		Pub:         ahe.PublicKey(priv),
		Source:      rng.New(1),
		SealTimeout: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- sh.Run() }()
	// client delivers `shares` plain shares of collection col, users
	// 0..shares-1 in one frame.
	client := func(col uint32, shares int) {
		conn, err := net.Dial("tcp", sh.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		if err := writeHello(conn, tagClientHello, 0); err != nil {
			t.Fatal(err)
		}
		sf := sharesFrame{collection: col, nonce: uint64(col) << 8, body: make([]byte, 8*shares)}
		if err := writeSharesFrame(conn, tagShares, sf); err != nil {
			t.Fatal(err)
		}
	}
	return followerRole{
		f:        sh.f,
		helloTag: tagShufflerHello,
		hello:    []byte{0},
		plant:    func(g gen) { client(g.col, 1) },
		holds: func(col uint32) bool {
			sh.mu.Lock()
			defer sh.mu.Unlock()
			return sh.cols[col] != nil
		},
		// Two shares for a round sealed at one user.
		spoil: func(g gen) {
			client(g.col, 2)
			eventually(t, "both shares buffered", func() bool {
				sh.mu.Lock()
				defer sh.mu.Unlock()
				return sh.cols[g.col] != nil && sh.cols[g.col].size() == 2
			})
		},
		exited: exited,
		close:  func() { sh.Close() },
	}
}

func TestFollowerConformance(t *testing.T) {
	priv, err := ahe.GenerateDGK(512, 64)
	if err != nil {
		t.Fatal(err)
	}
	roles := map[string]func(*testing.T, *ahe.DGKPrivateKey, string) followerRole{
		"shuffler": startShufflerRole,
	}
	// The policy rows: the node's control loop ends, and returns
	// exitErr — or, in a redial row, the node redials and runs until
	// Close.
	endings := map[string]struct {
		do      func(t *testing.T, conn net.Conn)
		exitErr error // errors.Is target; nil = clean exit
		redials bool
	}{
		"goodbye": { // the cluster is over
			do: func(t *testing.T, conn net.Conn) {
				if err := transport.WriteTaggedFrame(conn, tagGoodbye, nil); err != nil {
					t.Fatal(err)
				}
			},
		},
		"close without goodbye": { // the analyzer dropped a link it could not use
			do:      func(_ *testing.T, conn net.Conn) { conn.Close() },
			redials: true,
		},
		"malformed frame": { // a deployment fault, surfaced
			do: func(t *testing.T, conn net.Conn) {
				if err := transport.WriteTaggedFrame(conn, tagVector, nil); err != nil {
					t.Fatal(err)
				}
			},
			exitErr: errBadFrame,
		},
	}
	for roleName, start := range roles {
		for endingName, ending := range endings {
			t.Run(roleName+"/"+endingName, func(t *testing.T) {
				baseline := runtime.NumGoroutine()
				coord := newScriptedCoordinator(t)
				role := start(t, priv, coord.addr())
				f := role.f

				// cur returns the follower's attempt slot once it holds g.
				cur := func(g gen) *attempt {
					var a *attempt
					eventually(t, "attempt armed", func() bool {
						f.mu.Lock()
						defer f.mu.Unlock()
						a = f.cur
						return a != nil && a.g == g
					})
					return a
				}
				send := func(conn net.Conn, tag uint32, payload []byte) {
					t.Helper()
					if err := transport.WriteTaggedFrame(conn, tag, payload); err != nil {
						t.Fatal(err)
					}
				}
				// quiet asserts the node says nothing on conn for a while:
				// a canceled attempt dies silently.
				quiet := func(conn net.Conn, why string) {
					t.Helper()
					conn.SetReadDeadline(time.Now().Add(150 * time.Millisecond))
					defer conn.SetReadDeadline(time.Time{})
					if tag, payload, err := transport.ReadTaggedFrameLimit(conn, 0); !errors.Is(err, os.ErrDeadlineExceeded) {
						t.Fatalf("%s: the node sent tag %d %q (%v), want silence", why, tag, payload, err)
					}
				}
				// doneThrough sends done(col) and returns once the node has
				// dispatched it — and, frames being served in order,
				// everything sent before it.
				doneThrough := func(conn net.Conn, col uint32) {
					t.Helper()
					send(conn, tagDone, donePayload(col))
					eventually(t, "done dispatched", func() bool {
						f.mu.Lock()
						defer f.mu.Unlock()
						return f.doneThrough >= int64(col)
					})
				}
				acceptHello := func(why string) net.Conn {
					t.Helper()
					conn, tag, hello := coord.accept()
					if tag != role.helloTag || !bytes.Equal(hello, role.hello) {
						t.Fatalf("%s: hello tag %d payload %x, want tag %d payload %x", why, tag, hello, role.helloTag, role.hello)
					}
					return conn
				}

				conn := acceptHello("first link")

				// seal g1; seal g2 supersedes it: g1 canceled, no fail notice.
				g1, g2 := gen{col: 10, att: 1}, gen{col: 10, att: 2}
				send(conn, tagSeal, sealPayload(g1, 4))
				a1 := cur(g1)
				send(conn, tagSeal, sealPayload(g2, 4))
				a2 := cur(g2)
				if !a1.canceled() || a2.canceled() {
					t.Fatalf("after g2 superseded g1: g1 canceled = %v, g2 canceled = %v", a1.canceled(), a2.canceled())
				}
				quiet(conn, "superseded attempt")
				role.plant(g2)

				// An abort for a stale generation and a seal not newer than the
				// current one are ignored.
				send(conn, tagAbort, prefixed(g1, nil))
				send(conn, tagSeal, sealPayload(g1, 4))
				doneThrough(conn, 9) // nothing the node holds
				if cur(g2) != a2 || a2.canceled() {
					t.Fatal("a stale abort or seal disturbed the current attempt")
				}

				// An abort for the current generation cancels it, silently.
				send(conn, tagAbort, prefixed(g2, nil))
				eventually(t, "current attempt canceled", a2.canceled)
				quiet(conn, "aborted attempt")

				// done prunes, and a seal at or below the watermark is ignored.
				if !role.holds(10) {
					t.Fatal("the node holds nothing of collection 10 before its done frame")
				}
				doneThrough(conn, 10)
				if role.holds(10) {
					t.Fatal("done(10) left collection 10's state behind")
				}
				send(conn, tagSeal, sealPayload(gen{col: 10, att: 3}, 4))
				doneThrough(conn, 11)
				if cur(g2) != a2 {
					t.Fatal("a seal at the done watermark armed an attempt")
				}

				// A link reset mid-attempt cancels the attempt and the node
				// redials with a fresh hello.
				g3 := gen{col: 20, att: 4}
				send(conn, tagSeal, sealPayload(g3, 4))
				a3 := cur(g3)
				conn.(*net.TCPConn).SetLinger(0)
				conn.Close()
				conn = acceptHello("after the reset")
				eventually(t, "attempt canceled by the reset", a3.canceled)

				// A failing attempt reports exactly one fail frame, stamped
				// with its generation.
				g4 := gen{col: 21, att: 5}
				role.spoil(g4)
				send(conn, tagSeal, sealPayload(g4, 1))
				conn.SetReadDeadline(time.Now().Add(10 * time.Second))
				tag, payload, err := transport.ReadTaggedFrameLimit(conn, 0)
				if err != nil {
					t.Fatalf("waiting for the fail notice: %v", err)
				}
				fg, msg, err := splitPrefixed(payload)
				if tag != tagFail || err != nil || fg != g4 || len(msg) == 0 {
					t.Fatalf("failing attempt answered tag %d gen %v %q (%v), want a fail notice for %v", tag, fg, msg, err, g4)
				}
				quiet(conn, "after the fail notice")

				// The role's policy point.
				ending.do(t, conn)
				if ending.redials {
					acceptHello("after " + endingName)
					role.close()
				}
				select {
				case err := <-role.exited:
					if (ending.exitErr == nil) != (err == nil) || !errors.Is(err, ending.exitErr) {
						t.Fatalf("control loop returned %v, want %v", err, ending.exitErr)
					}
				case <-time.After(10 * time.Second):
					t.Fatalf("the node kept running after %s", endingName)
				}

				// Close leaves no goroutine behind.
				role.close()
				eventually(t, "goroutines back at baseline", func() bool { return runtime.NumGoroutine() <= baseline })
			})
		}
	}
}
