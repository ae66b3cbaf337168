package main

import (
	"net"
	"sync/atomic"
	"time"
)

// byteCounter totals the bytes that crossed a set of connections, in
// both directions.
type byteCounter struct{ n atomic.Int64 }

// Bytes returns the running total.
func (b *byteCounter) Bytes() int64 { return b.n.Load() }

// countingListener wraps a listener so every accepted connection adds
// its reads and writes to one byteCounter: the benchmark's view of
// "bytes crossing a listener the workload owns", measured outside the
// program under test.
type countingListener struct {
	net.Listener
	c *byteCounter
}

// listenLoopback binds a loopback TCP listener that counts into c.
func listenLoopback(c *byteCounter) (net.Listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return &countingListener{Listener: ln, c: c}, nil
}

// Accept wraps the next connection so it counts.
func (l *countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: conn, c: l.c}, nil
}

// countingConn adds every byte read or written to its counter.
type countingConn struct {
	net.Conn
	c *byteCounter
}

// Read counts the bytes received.
func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.c.n.Add(int64(n))
	return n, err
}

// Write counts the bytes sent.
func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.c.n.Add(int64(n))
	return n, err
}

// countingDial returns a cluster.DialFunc-shaped dialer over plain TCP
// whose connections count into c — how the PEOS cluster workload tells
// client→shuffler bytes from shuffler-mesh bytes, which share the
// shufflers' listeners.
func countingDial(c *byteCounter) func(addr string, timeout time.Duration) (net.Conn, error) {
	return func(addr string, timeout time.Duration) (net.Conn, error) {
		conn, err := net.DialTimeout("tcp", addr, timeout)
		if err != nil {
			return nil, err
		}
		return &countingConn{Conn: conn, c: c}, nil
	}
}
