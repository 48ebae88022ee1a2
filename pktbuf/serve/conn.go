package serve

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/pktbuf"
	"repro/pktbuf/serve/wire"
	"repro/pktbuf/trace"
)

// conn is one data-plane connection: a reader goroutine that decodes
// Submit frames and admits cells into the ingress ring, and a writer
// goroutine that drains the egress ring into Deliver frames. The two
// goroutines and the serving loop share only the rings and atomics —
// admission never takes a lock on the serving path.
type conn struct {
	s  *Server
	nc net.Conn

	// queues are the VOQ ids this connection owns (assigned at
	// handshake, released at teardown).
	queues []int32

	ingress *spscRing // reader → serving loop
	egress  *spscRing // serving loop → writer

	// window counts remaining in-system credit: the reader decrements
	// per admitted cell, the writer increments per delivered cell. The
	// egress ring holds windowCap cells, so when credit is respected a
	// delivery push can never fail.
	window    atomic.Int64
	windowCap int

	// admitting counts admissions in flight (between the first credit
	// check and the ring push), letting the serving loop's drain sweep
	// prove no cell can appear after it looks.
	admitting atomic.Int32

	// armed is true while an activation token for this connection is
	// either queued on Server.ingestCh or held by the serving loop's
	// active list; it guarantees at most one token in flight.
	armed atomic.Bool

	// closing means no further Submits will be admitted (client Bye,
	// read failure, or server shutdown); the writer exits once the
	// connection's cells have drained.
	closing atomic.Bool

	// sawBye records a clean client Bye, distinguishing an orderly
	// close (session released) from a connection failure (session
	// retained for resumption on a Resumable server).
	sawBye atomic.Bool

	// gone tells the serving loop to stop ingesting from this
	// connection: it died (or was superseded) with a live session, so
	// its unprocessed ingress cells will surface as client resubmits on
	// the session's next connection rather than entering the engine
	// twice.
	gone atomic.Bool

	// sess is the durable session this connection serves (nil on a
	// non-Resumable server). Stored by the reader goroutine during the
	// handshake; the writer goroutine reads it when deciding how to
	// tear down.
	sess atomic.Pointer[session]
	// resumeAcks holds the resuming client's per-queue received counts
	// (aligned with sess.queues) until the serving loop attaches.
	resumeAcks []uint64

	// ctrl queues control frames (Welcome/Flows/Reject/Drain) for the
	// writer goroutine, which owns the socket.
	ctrlMu sync.Mutex
	ctrl   []ctrlMsg

	// wakeW signals the writer that deliveries or control frames are
	// pending.
	wakeW chan struct{}

	// dirtyMark is serving-loop private: the connection is already on
	// the loop's dirty list for the current batch.
	dirtyMark bool
}

type ctrlMsg struct {
	t       wire.Type
	payload []byte
}

func newConn(s *Server, nc net.Conn) *conn {
	return &conn{
		s:       s,
		nc:      nc,
		ingress: newSpscRing(s.cfg.IngressRing),
		egress:  newSpscRing(s.cfg.Window),
		wakeW:   make(chan struct{}, 1),
	}
}

// inSystem returns the connection's admitted-but-undelivered cell
// count (advisory under concurrency).
func (c *conn) inSystem() int64 { return int64(c.windowCap) - c.window.Load() }

// sendCtrl queues a control frame for the writer.
func (c *conn) sendCtrl(t wire.Type, payload []byte) {
	c.ctrlMu.Lock()
	c.ctrl = append(c.ctrl, ctrlMsg{t: t, payload: payload})
	c.ctrlMu.Unlock()
	c.wakeWriter()
}

func (c *conn) wakeWriter() {
	select {
	case c.wakeW <- struct{}{}:
	default:
	}
}

// admit accepts one cell for VOQ q, or reports the reject reason. It
// is the reader-side admission path: typed, bounded, lock-free.
func (c *conn) admit(q int32) (rejectReason, bool) {
	c.admitting.Add(1)
	defer c.admitting.Add(-1)
	if c.s.draining.Load() || c.closing.Load() {
		return rejDraining, false
	}
	if q < 0 || int(q) >= len(c.s.owner) || c.s.owner[q].Load() != c {
		return rejBadFlow, false
	}
	if c.window.Add(-1) < 0 {
		c.window.Add(1)
		return rejWindowFull, false
	}
	if !c.ingress.push(q) {
		c.window.Add(1)
		return rejIngressFull, false
	}
	c.s.admitted.Add(1)
	if c.armed.CompareAndSwap(false, true) {
		c.s.ingestCh <- c
		c.s.wakeLoop()
	}
	return 0, true
}

// retryHint estimates how many serving-loop slots should free the
// rejected resource: the connection's in-system backlog, floored at
// one batch.
func (c *conn) retryHint() uint64 {
	in := c.inSystem()
	if b := int64(c.s.cfg.Batch); in < b {
		in = b
	}
	return uint64(in)
}

// readLoop handshakes and then admits Submit frames until the client
// says Bye or the connection fails.
func (c *conn) readLoop() {
	defer c.s.connWG.Done()
	defer func() {
		// Whatever the exit reason: no more admissions, and the writer
		// finishes draining and tears down.
		c.closing.Store(true)
		c.wakeWriter()
	}()
	r := wire.NewReader(c.nc)
	ka := c.s.cfg.KeepAlive
	c.armDeadline(ka)
	if !c.handshake(r) {
		return
	}
	for {
		c.armDeadline(ka)
		t, payload, err := r.Next()
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				c.s.cfg.ErrorLog.Printf("pktbufd: read %s: %v", c.nc.RemoteAddr(), ErrPeerTimeout)
			} else if err != io.EOF && !c.s.closed.Load() && !errors.Is(err, net.ErrClosed) {
				c.s.cfg.ErrorLog.Printf("pktbufd: read %s: %v", c.nc.RemoteAddr(), err)
			}
			return
		}
		switch t {
		case wire.TSubmit:
			c.handleSubmit(payload)
		case wire.TPing:
			c.sendCtrl(wire.TPong, nil)
		case wire.TPong:
			// Liveness proven; the deadline was re-armed above.
		case wire.TBye:
			c.sawBye.Store(true)
			return
		default:
			c.s.cfg.ErrorLog.Printf("pktbufd: %s sent unexpected %v frame", c.nc.RemoteAddr(), t)
			return
		}
	}
}

// armDeadline extends the read deadline to two keepalive intervals
// out; a peer that stays silent longer — not even answering Pings —
// is reaped (ErrPeerTimeout).
func (c *conn) armDeadline(ka time.Duration) {
	if ka > 0 {
		c.nc.SetReadDeadline(time.Now().Add(2 * ka))
	}
}

// handshake consumes Hello, allocates flows, and queues
// Welcome+Flows. On failure it queues a Reject and reports false.
func (c *conn) handshake(r *wire.Reader) bool {
	t, payload, err := r.Next()
	if err != nil {
		return false
	}
	if t != wire.THello {
		c.s.cfg.ErrorLog.Printf("pktbufd: %s opened with %v, want Hello", c.nc.RemoteAddr(), t)
		return false
	}
	hello, err := wire.ParseHello(payload)
	if err != nil {
		c.s.cfg.ErrorLog.Printf("pktbufd: %s bad Hello: %v", c.nc.RemoteAddr(), err)
		return false
	}
	if c.s.draining.Load() {
		rej := wire.Reject{Code: wire.CodeDraining}
		c.sendCtrl(wire.TReject, rej.AppendTo(nil))
		return false
	}
	if hello.Session != 0 {
		return c.resumeHandshake(r, hello)
	}
	qs := c.s.allocFlows(c, hello.Flows)
	if qs == nil {
		// Not enough free VOQs for the request.
		rej := wire.Reject{Code: wire.CodeBadFlow, Dropped: hello.Flows}
		c.sendCtrl(wire.TReject, rej.AppendTo(nil))
		return false
	}
	c.windowCap = c.s.cfg.Window
	c.window.Store(int64(c.windowCap))
	welcome := wire.Welcome{
		Flows:       len(qs),
		IngressRing: c.ingress.capacity(),
		Window:      c.windowCap,
	}
	if sess := c.sess.Load(); sess != nil {
		welcome.Session = sess.token
	}
	c.sendCtrl(wire.TWelcome, welcome.AppendTo(nil))
	flowQs := make([]pktbuf.Queue, len(qs))
	for i, q := range qs {
		flowQs[i] = pktbuf.Queue(q)
	}
	c.sendCtrl(wire.TFlows, encodeCellPayload(flowQs))
	return true
}

// resumeHandshake serves a Hello that names a session token: it reads
// the client's TAcks frame, reattaches the session, and hands the
// connection to the serving loop, which finishes the handshake
// (Welcome + TSeqs + redeliveries) at a point consistent with the
// engine counters.
func (c *conn) resumeHandshake(r *wire.Reader, hello wire.Hello) bool {
	t, payload, err := r.Next()
	if err != nil || t != wire.TAcks {
		c.s.cfg.ErrorLog.Printf("pktbufd: %s resume without Acks (got %v, err %v)", c.nc.RemoteAddr(), t, err)
		return false
	}
	acks := make(map[pktbuf.Queue]uint64)
	if err := wire.ParseSeqs(payload, func(q pktbuf.Queue, n uint64) error {
		acks[q] = n
		return nil
	}); err != nil {
		c.s.cfg.ErrorLog.Printf("pktbufd: %s bad Acks: %v", c.nc.RemoteAddr(), err)
		return false
	}
	sess := c.s.resumeSession(c, hello.Session)
	if sess == nil {
		rej := wire.Reject{Code: wire.CodeSessionUnknown}
		c.sendCtrl(wire.TReject, rej.AppendTo(nil))
		return false
	}
	c.resumeAcks = make([]uint64, len(sess.queues))
	known := 0
	for i, q := range sess.queues {
		if n, ok := acks[pktbuf.Queue(q)]; ok {
			c.resumeAcks[i] = n
			known++
		}
	}
	if known != len(acks) {
		// The client acked a queue this session does not own.
		rej := wire.Reject{Code: wire.CodeBadFlow}
		c.sendCtrl(wire.TReject, rej.AppendTo(nil))
		return false
	}
	c.windowCap = c.s.cfg.Window
	// No credit until the loop attaches and computes the session's
	// in-system charge; the client waits for Welcome before submitting
	// anyway.
	c.window.Store(0)
	c.s.resumeCh <- c
	c.s.wakeLoop()
	return true
}

// encodeCellPayload renders a one-shot Deliveries-side cell payload
// (handshake path only; steady-state framing goes through the writer
// goroutine's reused wire.Writer scratch).
func encodeCellPayload(qs []pktbuf.Queue) []byte {
	t := trace.Trace{Events: make([]trace.Event, len(qs))}
	for i, q := range qs {
		t.Events[i] = trace.Event{Arrival: pktbuf.None, Request: q}
	}
	var b bytes.Buffer
	if err := t.Write(&b); err != nil {
		return nil
	}
	return b.Bytes()
}

// handleSubmit admits the frame's cells as a prefix and queues one
// Reject for the remainder on the first failure.
func (c *conn) handleSubmit(payload []byte) {
	accepted, total := 0, 0
	reason := rejectReason(-1)
	err := wire.DecodeCells(payload, wire.Arrivals, func(q pktbuf.Queue) error {
		total++
		if reason >= 0 {
			return nil // already failing; just count the dropped tail
		}
		if r, ok := c.admit(int32(q)); !ok {
			reason = r
		} else {
			accepted++
		}
		return nil
	})
	if err != nil {
		c.s.cfg.ErrorLog.Printf("pktbufd: %s bad Submit: %v", c.nc.RemoteAddr(), err)
		c.closing.Store(true)
		c.wakeWriter()
		return
	}
	if reason >= 0 {
		c.s.rejects[reason].Add(uint64(total - accepted))
		rej := wire.Reject{
			Code:       rejectCode(reason),
			Accepted:   accepted,
			Dropped:    total - accepted,
			RetrySlots: c.retryHint(),
		}
		c.sendCtrl(wire.TReject, rej.AppendTo(nil))
	}
}

func rejectCode(r rejectReason) wire.Code {
	switch r {
	case rejIngressFull:
		return wire.CodeIngressFull
	case rejWindowFull:
		return wire.CodeWindowFull
	case rejDraining:
		return wire.CodeDraining
	}
	return wire.CodeBadFlow
}

// writeLoop owns the socket's write side: control frames first, then
// egress-ring deliveries, then — once the connection is closing and
// empty — a final Bye. On a write failure it keeps consuming the
// egress ring (restoring window credit) so the serving loop is never
// wedged by a dead client — unless the session is resumable, in which
// case it exits immediately and leaves the cells in the engine for
// the session's next connection.
func (c *conn) writeLoop() {
	defer c.s.connWG.Done()
	defer c.teardown()
	w := wire.NewWriter(c.nc)
	cells := make([]pktbuf.Queue, 0, 256)
	failed := false
	var ctrl []ctrlMsg
	ka := c.s.cfg.KeepAlive
	var pingT *time.Timer
	if ka > 0 {
		pingT = time.NewTimer(ka)
		defer pingT.Stop()
	}
	ping := func() {
		if failed {
			return
		}
		if ka > 0 {
			c.nc.SetWriteDeadline(time.Now().Add(2 * ka))
		}
		if w.WriteFrame(wire.TPing, nil) != nil || w.Flush() != nil {
			failed = true
		}
	}
	for {
		progress := false
		// Sample closing before the control queue: whoever sets it
		// queues its last control frame first (Shutdown: Drain, then
		// closing) and wakes the writer after, so a pass that saw
		// closing has also written that frame ahead of the Bye.
		closing := c.closing.Load()
		// Control frames.
		c.ctrlMu.Lock()
		ctrl = append(ctrl[:0], c.ctrl...)
		c.ctrl = c.ctrl[:0]
		c.ctrlMu.Unlock()
		for _, m := range ctrl {
			progress = true
			if failed {
				continue
			}
			if err := w.WriteFrame(m.t, m.payload); err != nil {
				failed = true
			}
		}
		// Deliveries.
		for {
			cells = cells[:0]
			for len(cells) < cap(cells) {
				q, ok := c.egress.pop()
				if !ok {
					break
				}
				cells = append(cells, pktbuf.Queue(q))
			}
			if len(cells) == 0 {
				break
			}
			progress = true
			if !failed {
				if err := w.WriteCells(wire.TDeliver, wire.Deliveries, cells); err != nil {
					failed = true
				}
			}
			// Credit returns whether or not the client heard about it.
			c.window.Add(int64(len(cells)))
		}
		if progress && !failed {
			if ka > 0 {
				c.nc.SetWriteDeadline(time.Now().Add(2 * ka))
			}
			if err := w.Flush(); err != nil {
				failed = true
			}
		}
		if c.s.closed.Load() {
			return
		}
		if c.resumableExit(failed) {
			// The connection died with a live session: leave its cells in
			// the engine (deliveries will park) and detach right away
			// instead of draining into a dead socket.
			return
		}
		if closing && c.inSystem() == 0 && c.ingress.empty() && c.admitting.Load() == 0 {
			if !failed {
				if w.WriteFrame(wire.TBye, nil) == nil {
					w.Flush()
				}
			}
			return
		}
		if !progress {
			if pingT == nil {
				<-c.wakeW
			} else {
				select {
				case <-c.wakeW:
				case <-pingT.C:
					ping()
					pingT.Reset(ka)
				}
			}
		} else if pingT != nil {
			// A busy connection still probes on schedule: the peer may
			// have nothing to send back but must keep answering Pings.
			select {
			case <-pingT.C:
				ping()
				pingT.Reset(ka)
			default:
			}
		}
	}
}

// resumableExit reports whether the writer should abandon the
// connection with its session intact: the peer is gone (write failure,
// read failure without Bye, or superseded by a resuming connection)
// and the server retains sessions.
func (c *conn) resumableExit(failed bool) bool {
	if c.sess.Load() == nil || c.sawBye.Load() || c.s.draining.Load() {
		return false
	}
	return failed || c.gone.Load() || c.closing.Load()
}

// teardown ends the writer's ownership of the connection: a clean
// close releases the session and its flows; a failure on a Resumable
// server detaches, keeping the session alive for resumption.
func (c *conn) teardown() {
	if c.resumableExit(true) {
		c.gone.Store(true)
		c.s.detachConn(c)
		return
	}
	c.s.releaseConn(c)
}
