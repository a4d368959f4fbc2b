package main

import (
	"io"
	"net"
	"sync/atomic"
)

// wireStats counts the client side of every transport connection of a
// stack. A connection has a request in flight from its first write
// after a response began until the next response byte arrives; the
// maximum over all connections at once is the stack's measured
// concurrency.
type wireStats struct {
	bytes, writes         atomic.Int64
	inflight, maxInflight atomic.Int64
}

func (w *wireStats) dial(addr string) (net.Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &wireConn{Conn: c, w: w}, nil
}

// wireConn is one client connection. The chirp client serializes its
// reads and writes on a connection, so pending needs no lock.
type wireConn struct {
	net.Conn
	w       *wireStats
	pending bool
}

func (c *wireConn) sent(n int64) {
	c.w.bytes.Add(n)
	c.w.writes.Add(1)
	if c.pending {
		return
	}
	c.pending = true
	now := c.w.inflight.Add(1)
	for {
		max := c.w.maxInflight.Load()
		if now <= max || c.w.maxInflight.CompareAndSwap(max, now) {
			return
		}
	}
}

func (c *wireConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.sent(int64(n))
	return n, err
}

// ReadFrom keeps the kernel's splice/sendfile path of the TCP
// connection available to bulk writers behind a bufio.Writer.
func (c *wireConn) ReadFrom(r io.Reader) (int64, error) {
	n, err := c.Conn.(io.ReaderFrom).ReadFrom(r)
	c.sent(n)
	return n, err
}

func (c *wireConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.w.bytes.Add(int64(n))
		if c.pending {
			c.pending = false
			c.w.inflight.Add(-1)
		}
	}
	return n, err
}

func (c *wireConn) Close() error {
	if c.pending {
		c.pending = false
		c.w.inflight.Add(-1)
	}
	return c.Conn.Close()
}
