// Package wire is the frame codec pktbufd speaks on its data-plane
// TCP listener: gRPC-style length-prefixed frames, with every
// cell-carrying payload expressed in the repro/pktbuf/trace record
// format. A frame is a 1-byte type, a 4-byte big-endian payload
// length, and the payload; cell payloads are trace record streams
// (one record per cell — "a<q>" for submitted arrivals, "r<q>" for
// delivered cells, exactly the framing the batch tooling records and
// replays), and control payloads are single-line "key=value" text.
//
// The protocol is deliberately small:
//
//	client → server: Hello{Flows} · Submit(cells) · Bye
//	server → client: Welcome{Flows,IngressRing,Window} · Flows(cells:
//	    the assigned VOQ ids) · Deliver(cells) · Reject{Code,
//	    Accepted, Dropped, RetrySlots} · Drain · Bye
//
// Deliveries are strictly sequential per VOQ (a guarantee the buffer
// engine enforces), so Deliver frames carry only queue ids: a client
// reconstructs per-queue sequence numbers by counting. Reject frames
// are the admission-control half of the taxonomy: they report how
// many cells of the offending Submit frame were admitted (a prefix),
// how many were dropped, the backpressure code, and an advisory
// retry-after hint in slots. Frames from one peer are processed in
// order, so a Reject always refers to the earliest not-yet-rejected
// Submit frame.
package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/pktbuf"
	"repro/pktbuf/trace"
)

// Type identifies a frame.
type Type uint8

// Frame types. Bye is used in both directions: from the client it
// means "no more submits, drain me and confirm"; from the server it
// confirms the connection is fully drained and about to close.
const (
	THello Type = iota + 1
	TSubmit
	TBye
	TWelcome
	TFlows
	TDeliver
	TReject
	TDrain
	// TPing / TPong are the keepalive probe and its echo; both carry an
	// empty payload. Either side may probe; the peer must echo promptly
	// or be reaped by the prober's read deadline.
	TPing
	TPong
	// TAcks (client → server) carries the client's per-queue count of
	// cells received so far; sent with a resuming Hello so the server
	// can suppress redelivery of cells the client already holds.
	TAcks
	// TSeqs (server → client) carries the server's per-queue
	// (arrived, delivered) counter pairs; sent with a resumed Welcome so
	// the client can resubmit exactly the cells the server never saw and
	// discard exactly the redeliveries it already holds.
	TSeqs
)

// String implements fmt.Stringer.
func (t Type) String() string {
	switch t {
	case THello:
		return "Hello"
	case TSubmit:
		return "Submit"
	case TBye:
		return "Bye"
	case TWelcome:
		return "Welcome"
	case TFlows:
		return "Flows"
	case TDeliver:
		return "Deliver"
	case TReject:
		return "Reject"
	case TDrain:
		return "Drain"
	case TPing:
		return "Ping"
	case TPong:
		return "Pong"
	case TAcks:
		return "Acks"
	case TSeqs:
		return "Seqs"
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// MaxPayload bounds a frame payload; both sides reject larger frames
// before buffering them, so a malformed or hostile peer cannot force
// an unbounded allocation.
const MaxPayload = 1 << 20

// ErrFrame reports a malformed frame or payload.
var ErrFrame = errors.New("wire: malformed frame")

// ErrTooLarge reports a frame payload over MaxPayload.
var ErrTooLarge = errors.New("wire: frame payload too large")

// headerLen is the fixed frame header size (type + length).
const headerLen = 5

// Side selects which half of a trace record carries cells in a frame
// payload: Submit frames use the arrival half, Deliver (and Flows)
// frames use the request half, mirroring which side of the buffer the
// cells cross.
type Side int

// Sides.
const (
	Arrivals Side = iota
	Deliveries
)

// A Writer frames and writes messages to one peer. It buffers
// internally; callers must Flush after writing a batch of frames. It
// is not safe for concurrent use — route all writes for a connection
// through one goroutine.
type Writer struct {
	w   *bufio.Writer
	hdr [headerLen]byte
	// enc and tr are reused across WriteCells calls so steady-state
	// framing allocates nothing, for queue ids of any magnitude: the
	// trace encoder appends records straight into enc
	// (TestWriteCellsAllocs).
	enc bytes.Buffer
	tr  trace.Trace
	kv  []byte
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

// WriteFrame writes one frame.
func (w *Writer) WriteFrame(t Type, payload []byte) error {
	if len(payload) > MaxPayload {
		return fmt.Errorf("%w: %d bytes", ErrTooLarge, len(payload))
	}
	w.hdr[0] = byte(t)
	binary.BigEndian.PutUint32(w.hdr[1:], uint32(len(payload)))
	if _, err := w.w.Write(w.hdr[:]); err != nil {
		return fmt.Errorf("wire: write frame: %w", err)
	}
	if _, err := w.w.Write(payload); err != nil {
		return fmt.Errorf("wire: write frame: %w", err)
	}
	return nil
}

// WriteCells writes one cell-carrying frame (Submit, Deliver or
// Flows): qs, in order, encoded as trace records on the given side.
func (w *Writer) WriteCells(t Type, side Side, qs []pktbuf.Queue) error {
	if cap(w.tr.Events) < len(qs) {
		w.tr.Events = make([]trace.Event, len(qs))
	}
	w.tr.Events = w.tr.Events[:len(qs)]
	for i, q := range qs {
		ev := trace.Event{Arrival: pktbuf.None, Request: pktbuf.None}
		if side == Arrivals {
			ev.Arrival = q
		} else {
			ev.Request = q
		}
		w.tr.Events[i] = ev
	}
	w.enc.Reset()
	if err := w.tr.Write(&w.enc); err != nil {
		return err
	}
	return w.WriteFrame(t, w.enc.Bytes())
}

// Flush pushes buffered frames to the underlying writer.
func (w *Writer) Flush() error {
	if err := w.w.Flush(); err != nil {
		return fmt.Errorf("wire: flush: %w", err)
	}
	return nil
}

// A Reader reads frames from one peer, reusing its payload buffer:
// the payload returned by Next is valid only until the following Next
// call. It is not safe for concurrent use.
type Reader struct {
	r   *bufio.Reader
	buf []byte
}

// NewReader wraps r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReader(r)}
}

// Next reads one frame. The returned payload aliases the reader's
// internal buffer. io.EOF is returned verbatim at a clean frame
// boundary; a connection dropped mid-frame surfaces as
// io.ErrUnexpectedEOF.
func (r *Reader) Next() (Type, []byte, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r.r, hdr[:1]); err != nil {
		if err == io.EOF {
			// Clean frame boundary: the sentinel, verbatim, by
			// contract.
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("wire: read frame: %w", err)
	}
	if _, err := io.ReadFull(r.r, hdr[1:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return 0, nil, io.ErrUnexpectedEOF
		}
		return 0, nil, fmt.Errorf("wire: read frame: %w", err)
	}
	t := Type(hdr[0])
	n := binary.BigEndian.Uint32(hdr[1:])
	if n > MaxPayload {
		return 0, nil, fmt.Errorf("%w: %d bytes", ErrTooLarge, n)
	}
	if cap(r.buf) < int(n) {
		r.buf = make([]byte, n)
	}
	r.buf = r.buf[:n]
	if _, err := io.ReadFull(r.r, r.buf); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return 0, nil, io.ErrUnexpectedEOF
		}
		return 0, nil, fmt.Errorf("wire: read frame: %w", err)
	}
	return t, r.buf, nil
}

// DecodeCells parses a cell-carrying payload (the trace record
// format) and calls fn for every cell in order. Records carrying the
// wrong side, idle records and paired records are rejected: a cell
// frame is a pure single-side stream. fn returning an error stops the
// walk and returns that error.
func DecodeCells(payload []byte, side Side, fn func(pktbuf.Queue) error) error {
	t, err := trace.Read(bytes.NewReader(payload))
	if err != nil {
		return fmt.Errorf("%w: %v", ErrFrame, err)
	}
	for _, ev := range t.Events {
		q := ev.Arrival
		other := ev.Request
		if side == Deliveries {
			q, other = other, q
		}
		if q == pktbuf.None || other != pktbuf.None {
			return fmt.Errorf("%w: mixed or idle record in cell frame", ErrFrame)
		}
		if err := fn(q); err != nil {
			return err
		}
	}
	return nil
}

// Hello is the client's opening message.
type Hello struct {
	// Flows is the number of VOQs the client asks to own.
	Flows int
	// Session resumes an earlier session by its token (0 = new
	// session). A resuming Hello is followed by a TAcks frame carrying
	// the client's per-queue received counts.
	Session uint64
}

// AppendTo encodes h.
func (h Hello) AppendTo(dst []byte) []byte {
	dst = append(dst, "flows="...)
	dst = strconv.AppendInt(dst, int64(h.Flows), 10)
	if h.Session != 0 {
		dst = append(dst, " session="...)
		dst = strconv.AppendUint(dst, h.Session, 10)
	}
	return dst
}

// ParseHello decodes a Hello payload.
func ParseHello(p []byte) (Hello, error) {
	kv, err := parseKV(p)
	if err != nil {
		return Hello{}, err
	}
	f, ok := kv["flows"]
	if !ok || f <= 0 {
		return Hello{}, fmt.Errorf("%w: Hello needs flows>0", ErrFrame)
	}
	return Hello{Flows: int(f), Session: kv["session"]}, nil
}

// Welcome is the server's handshake reply; the assigned VOQ ids
// follow in a Flows frame.
type Welcome struct {
	// Flows is the number of VOQs assigned.
	Flows int
	// IngressRing is the connection's ingress ring capacity in cells:
	// the largest burst the server will buffer ahead of the serving
	// loop before rejecting with RejectIngressFull.
	IngressRing int
	// Window is the connection's in-system cell cap: submitted cells
	// not yet delivered back. A client that keeps
	// submitted−delivered < Window is never rejected with
	// RejectWindowFull.
	Window int
	// Session is the token naming this session for later resumption.
	Session uint64
	// Resumed reports that the Hello's session token was recognized and
	// the session's flows and delivery cursors were reattached; a
	// resumed Welcome is followed by a TSeqs frame instead of TFlows.
	Resumed bool
}

// AppendTo encodes w.
func (w Welcome) AppendTo(dst []byte) []byte {
	dst = append(dst, "flows="...)
	dst = strconv.AppendInt(dst, int64(w.Flows), 10)
	dst = append(dst, " ring="...)
	dst = strconv.AppendInt(dst, int64(w.IngressRing), 10)
	dst = append(dst, " window="...)
	dst = strconv.AppendInt(dst, int64(w.Window), 10)
	dst = append(dst, " session="...)
	dst = strconv.AppendUint(dst, w.Session, 10)
	if w.Resumed {
		dst = append(dst, " resumed=1"...)
	}
	return dst
}

// ParseWelcome decodes a Welcome payload.
func ParseWelcome(p []byte) (Welcome, error) {
	kv, err := parseKV(p)
	if err != nil {
		return Welcome{}, err
	}
	return Welcome{
		Flows:       int(kv["flows"]),
		IngressRing: int(kv["ring"]),
		Window:      int(kv["window"]),
		Session:     kv["session"],
		Resumed:     kv["resumed"] != 0,
	}, nil
}

// Code names a backpressure condition in a Reject frame. The serve
// package maps codes onto the module's typed error taxonomy
// (repro/pktbuf/router.ErrIngressFull, repro/pktbuf.ErrBufferFull, …)
// so clients dispatch with errors.Is.
type Code string

// Reject codes.
const (
	// CodeIngressFull: the submit burst overran the connection's
	// ingress ring (Welcome.IngressRing). Transient — retry after the
	// hint.
	CodeIngressFull Code = "ingress_full"
	// CodeWindowFull: the connection hit its in-system cell cap
	// (Welcome.Window). Retry after deliveries free the window.
	CodeWindowFull Code = "window_full"
	// CodeDraining: the server is draining for shutdown and admits
	// nothing new.
	CodeDraining Code = "draining"
	// CodeBadFlow: a submitted cell named a VOQ the connection does
	// not own. Not transient — fix the client.
	CodeBadFlow Code = "bad_flow"
	// CodeSessionUnknown: a resuming Hello named a session token the
	// server does not hold (expired, reaped, or from before the last
	// un-checkpointed restart). Not transient — the client must start a
	// fresh session and resubmit from its own records.
	CodeSessionUnknown Code = "session_unknown"
)

// Reject reports that the tail of a Submit frame was not admitted.
type Reject struct {
	// Code is the backpressure condition.
	Code Code
	// Accepted and Dropped partition the offending Submit frame: its
	// first Accepted cells were admitted, the remaining Dropped cells
	// were not (admission stops at the first failure).
	Accepted, Dropped int
	// RetrySlots is an advisory hint: roughly how many slots of
	// serving-loop progress should free the resource.
	RetrySlots uint64
}

// AppendTo encodes r.
func (r Reject) AppendTo(dst []byte) []byte {
	dst = append(dst, "code="...)
	dst = append(dst, r.Code...)
	dst = append(dst, " ok="...)
	dst = strconv.AppendInt(dst, int64(r.Accepted), 10)
	dst = append(dst, " dropped="...)
	dst = strconv.AppendInt(dst, int64(r.Dropped), 10)
	dst = append(dst, " retry="...)
	return strconv.AppendUint(dst, r.RetrySlots, 10)
}

// ParseReject decodes a Reject payload.
func ParseReject(p []byte) (Reject, error) {
	var code Code
	rest := make([]byte, 0, len(p))
	for _, f := range strings.Fields(string(p)) {
		if c, ok := strings.CutPrefix(f, "code="); ok {
			code = Code(c)
			continue
		}
		if len(rest) > 0 {
			rest = append(rest, ' ')
		}
		rest = append(rest, f...)
	}
	if code == "" {
		return Reject{}, fmt.Errorf("%w: Reject needs a code", ErrFrame)
	}
	kv, err := parseKV(rest)
	if err != nil {
		return Reject{}, err
	}
	return Reject{
		Code:       code,
		Accepted:   int(kv["ok"]),
		Dropped:    int(kv["dropped"]),
		RetrySlots: kv["retry"],
	}, nil
}

// AppendSeqs encodes a per-queue counter vector (a TAcks or TSeqs
// payload): one "q=count" field per queue, in the order given.
func AppendSeqs(dst []byte, qs []pktbuf.Queue, counts []uint64) []byte {
	for i, q := range qs {
		if i > 0 {
			dst = append(dst, ' ')
		}
		dst = strconv.AppendInt(dst, int64(q), 10)
		dst = append(dst, '=')
		dst = strconv.AppendUint(dst, counts[i], 10)
	}
	return dst
}

// ParseSeqs decodes a per-queue counter vector, calling fn once per
// queue in payload order. fn returning an error stops the walk and
// returns that error.
func ParseSeqs(p []byte, fn func(q pktbuf.Queue, n uint64) error) error {
	for _, f := range strings.Fields(string(p)) {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			return fmt.Errorf("%w: bad seq field %q", ErrFrame, f)
		}
		q, err := strconv.ParseInt(k, 10, 32)
		if err != nil || q < 0 {
			return fmt.Errorf("%w: bad seq queue %q", ErrFrame, f)
		}
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return fmt.Errorf("%w: bad seq count %q", ErrFrame, f)
		}
		if err := fn(pktbuf.Queue(q), n); err != nil {
			return err
		}
	}
	return nil
}

// AppendSeqPairs encodes a per-queue (arrived, delivered) counter
// vector (a TSeqs payload): one "q=arrived:delivered" field per queue,
// in the order given.
func AppendSeqPairs(dst []byte, qs []pktbuf.Queue, arrived, delivered []uint64) []byte {
	for i, q := range qs {
		if i > 0 {
			dst = append(dst, ' ')
		}
		dst = strconv.AppendInt(dst, int64(q), 10)
		dst = append(dst, '=')
		dst = strconv.AppendUint(dst, arrived[i], 10)
		dst = append(dst, ':')
		dst = strconv.AppendUint(dst, delivered[i], 10)
	}
	return dst
}

// ParseSeqPairs decodes a per-queue (arrived, delivered) counter
// vector, calling fn once per queue in payload order. fn returning an
// error stops the walk and returns that error.
func ParseSeqPairs(p []byte, fn func(q pktbuf.Queue, arrived, delivered uint64) error) error {
	for _, f := range strings.Fields(string(p)) {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			return fmt.Errorf("%w: bad seq field %q", ErrFrame, f)
		}
		q, err := strconv.ParseInt(k, 10, 32)
		if err != nil || q < 0 {
			return fmt.Errorf("%w: bad seq queue %q", ErrFrame, f)
		}
		av, dv, ok := strings.Cut(v, ":")
		if !ok {
			return fmt.Errorf("%w: bad seq pair %q", ErrFrame, f)
		}
		a, err := strconv.ParseUint(av, 10, 64)
		if err != nil {
			return fmt.Errorf("%w: bad seq count %q", ErrFrame, f)
		}
		d, err := strconv.ParseUint(dv, 10, 64)
		if err != nil {
			return fmt.Errorf("%w: bad seq count %q", ErrFrame, f)
		}
		if err := fn(pktbuf.Queue(q), a, d); err != nil {
			return err
		}
	}
	return nil
}

// parseKV parses "key=value" fields with unsigned integer values.
func parseKV(p []byte) (map[string]uint64, error) {
	kv := make(map[string]uint64)
	for _, f := range strings.Fields(string(p)) {
		k, v, ok := strings.Cut(f, "=")
		if !ok || k == "" {
			return nil, fmt.Errorf("%w: bad field %q", ErrFrame, f)
		}
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%w: bad value %q", ErrFrame, f)
		}
		kv[k] = n
	}
	return kv, nil
}
