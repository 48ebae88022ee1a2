// Package faultnet wraps net.Listener/net.Conn with deterministic
// fault injection for crash-safety tests: cut every connection at
// once (a process crash seen from the network), truncate a write
// mid-frame and then hang (a crash mid-flush), or black-hole traffic
// without closing sockets (a silent peer, which keepalive probing must
// detect).
//
// The wrappers are transport-faithful: a cut surfaces to both sides
// as an abrupt connection error, exactly like a killed process, so a
// client retry/resume implementation exercised through faultnet sees
// the same error sequences it would see in production.
package faultnet

import (
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Network tracks every connection made through its wrappers and
// applies the currently configured faults to all of them.
type Network struct {
	mu    sync.Mutex
	conns map[*Conn]struct{}

	blackhole atomic.Bool
}

// New returns an empty fault-injection network.
func New() *Network {
	return &Network{conns: make(map[*Conn]struct{})}
}

// Listen wraps a listener so every accepted connection is tracked.
func (n *Network) Listen(inner net.Listener) *Listener {
	return &Listener{Listener: inner, n: n}
}

// Dial runs dial and wraps the resulting connection.
func (n *Network) Dial(dial func() (net.Conn, error)) (net.Conn, error) {
	nc, err := dial()
	if err != nil {
		return nil, err
	}
	return n.wrap(nc), nil
}

func (n *Network) wrap(nc net.Conn) *Conn {
	c := &Conn{Conn: nc, n: n, done: make(chan struct{})}
	c.partial.Store(-1)
	n.mu.Lock()
	n.conns[c] = struct{}{}
	n.mu.Unlock()
	return c
}

// CutAll abruptly closes every tracked connection — the network view
// of a crashed process. Subsequent reads and writes on both ends fail
// immediately (unblocking any write parked in a blackhole or a
// partial-write hang).
func (n *Network) CutAll() {
	n.mu.Lock()
	conns := make([]*Conn, 0, len(n.conns))
	for c := range n.conns {
		conns = append(conns, c)
	}
	n.conns = make(map[*Conn]struct{})
	n.mu.Unlock()
	for _, c := range conns {
		c.cut()
	}
}

// Conns returns the current number of tracked (un-cut, un-closed)
// connections.
func (n *Network) Conns() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.conns)
}

// Blackhole makes writes block (without erroring and without closing
// sockets) until cleared or the connection is cut — a silent peer.
func (n *Network) Blackhole(on bool) { n.blackhole.Store(on) }

func (n *Network) drop(c *Conn) {
	n.mu.Lock()
	delete(n.conns, c)
	n.mu.Unlock()
}

// Listener wraps accepted connections into the network.
type Listener struct {
	net.Listener
	n *Network
}

// Accept wraps the inner Accept's connection.
func (l *Listener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.n.wrap(nc), nil
}

// Conn is a tracked connection with write-side fault injection. Reads
// pass through untouched: cutting closes the underlying socket, which
// fails reads on both ends the way a peer crash does.
type Conn struct {
	net.Conn
	n *Network

	// partial counts down bytes still allowed through before writes
	// hang forever (-1 disables).
	partial atomic.Int64

	closeOnce sync.Once
	done      chan struct{}
}

// PartialThenHang lets the next limit bytes through, then makes every
// write block until the connection is cut — a process crashing with a
// frame half-flushed.
func (c *Conn) PartialThenHang(limit int) { c.partial.Store(int64(limit)) }

// cut closes the underlying socket without removing fault state, so
// blocked writers wake with an error.
func (c *Conn) cut() {
	c.closeOnce.Do(func() {
		close(c.done)
		c.Conn.Close()
	})
}

// Close unregisters and closes the connection.
func (c *Conn) Close() error {
	c.n.drop(c)
	err := error(nil)
	c.closeOnce.Do(func() {
		close(c.done)
		err = c.Conn.Close()
	})
	return err
}

// Write applies blackhole and partial-write faults, then forwards to
// the underlying connection.
func (c *Conn) Write(p []byte) (int, error) {
	for c.n.blackhole.Load() {
		select {
		case <-time.After(time.Millisecond):
		case <-c.done:
			return 0, net.ErrClosed
		}
	}
	if rem := c.partial.Load(); rem >= 0 {
		if int64(len(p)) <= rem {
			n, err := c.Conn.Write(p)
			c.partial.Add(int64(-n))
			return n, err
		}
		n := 0
		if rem > 0 {
			n, _ = c.Conn.Write(p[:rem])
			c.partial.Add(int64(-n))
		}
		// The allowance is spent mid-buffer: hang until cut, like a
		// process that died with a frame half-flushed.
		<-c.done
		return n, net.ErrClosed
	}
	return c.Conn.Write(p)
}
