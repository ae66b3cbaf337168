package faultnet

import (
	"errors"
	"io"
	"net"
	"syscall"
	"testing"
	"time"
)

// echoServer accepts connections and echoes bytes back until EOF.
func echoServer(t *testing.T) (addr string, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				io.Copy(conn, conn)
			}()
		}
	}()
	return ln.Addr().String(), func() { ln.Close() }
}

func TestPlannedResetTearsAtByteOffset(t *testing.T) {
	addr, stop := echoServer(t)
	defer stop()
	nw := New(Config{Plan: func(conn int) Fault { return Fault{ResetAfter: 100} }})
	conn, err := nw.Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// The first write is truncated to the 100-byte budget and resets.
	n, err := conn.Write(make([]byte, 150))
	if n != 100 {
		t.Fatalf("wrote %d bytes before the reset, want the 100-byte budget", n)
	}
	if !errors.Is(err, ErrInjected) || !errors.Is(err, syscall.ECONNRESET) {
		t.Fatalf("torn write returned %v, want ErrInjected wrapping ECONNRESET", err)
	}
	// The connection stays dead.
	if _, err := conn.Write([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("post-reset write returned %v", err)
	}
	if _, err := conn.Read(make([]byte, 1)); !errors.Is(err, ErrInjected) {
		t.Fatalf("post-reset read returned %v", err)
	}
	st := nw.Stats()
	if st.Resets != 1 || st.Conns != 1 {
		t.Fatalf("stats = %+v, want 1 conn and 1 reset", st)
	}
}

func TestResetBudgetCountsReads(t *testing.T) {
	addr, stop := echoServer(t)
	defer stop()
	nw := New(Config{Plan: func(conn int) Fault { return Fault{ResetAfter: 48} }})
	conn, err := nw.Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// 32 bytes out, echoed back: 64 bytes total crosses the 48 budget
	// during the read leg.
	if _, err := conn.Write(make([]byte, 32)); err != nil {
		t.Fatalf("write within budget failed: %v", err)
	}
	buf := make([]byte, 32)
	got := 0
	for {
		n, err := conn.Read(buf[got:])
		got += n
		if err != nil {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("read returned %v, want ErrInjected", err)
			}
			break
		}
		if got == len(buf) {
			t.Fatal("echo read completed past the reset budget")
		}
	}
	if got != 16 {
		t.Fatalf("read %d bytes before the reset, want 16 (budget 48 - 32 written)", got)
	}
}

func TestPeerObservesInjectedReset(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type result struct {
		err error
	}
	got := make(chan result, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			got <- result{err}
			return
		}
		defer conn.Close()
		buf := make([]byte, 256)
		for {
			if _, err := conn.Read(buf); err != nil {
				got <- result{err}
				return
			}
		}
	}()
	nw := New(Config{Plan: func(conn int) Fault { return Fault{ResetAfter: 64} }})
	conn, err := nw.Dial(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(make([]byte, 128)); !errors.Is(err, ErrInjected) {
		t.Fatalf("write returned %v, want ErrInjected", err)
	}
	select {
	case r := <-got:
		// A linger-0 close surfaces as ECONNRESET on most platforms; a
		// plain EOF would mean the peer mistook the fault for a clean
		// shutdown. Accept either hard error, reject nil and io.EOF.
		if r.err == nil || errors.Is(r.err, io.EOF) {
			t.Fatalf("peer observed %v, want a hard connection error", r.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("peer never observed the reset")
	}
}

func TestScheduledRefusal(t *testing.T) {
	addr, stop := echoServer(t)
	defer stop()
	nw := New(Config{Plan: func(conn int) Fault {
		return Fault{Refuse: conn == 0}
	}})
	if _, err := nw.Dial(addr, time.Second); !errors.Is(err, ErrRefused) || !errors.Is(err, syscall.ECONNREFUSED) {
		t.Fatalf("scheduled refusal returned %v, want ErrRefused wrapping ECONNREFUSED", err)
	}
	conn, err := nw.Dial(addr, time.Second)
	if err != nil {
		t.Fatalf("second dial should pass the schedule: %v", err)
	}
	conn.Close()
	if st := nw.Stats(); st.Refused != 1 || st.Conns != 2 {
		t.Fatalf("stats = %+v, want 2 connections and 1 refusal", st)
	}
}
