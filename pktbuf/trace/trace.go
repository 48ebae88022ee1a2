// Package trace records and replays slot-level workload traces
// through the public API. The paper's evaluation has no public traffic
// traces, so experiments are driven by synthetic generators; this
// package makes any such run reproducible and portable: capture the
// exact per-slot stimulus once, replay it against any buffer
// configuration or implementation revision.
//
// The format is line-oriented text, one slot per line:
//
//	# comment / header
//	a3 r7     arrival for queue 3, request for queue 7
//	a0        arrival only
//	r2        request only
//	.         idle slot
//
// Lines are ordered; slot numbers are implicit.
package trace

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/pktbuf"
	"repro/pktbuf/sim"
)

// Event is the stimulus of one slot.
type Event struct {
	// Arrival and Request are queue ids, pktbuf.None for none.
	Arrival, Request pktbuf.Queue
}

// Trace is an in-memory sequence of per-slot events.
type Trace struct {
	Events []Event
}

// ErrFormat reports a malformed trace line.
var ErrFormat = errors.New("trace: malformed line")

// maxRecord bounds one encoded record: "a-2147483648 r-2147483648\n";
// maxHeader bounds the header line.
const (
	maxRecord = 26
	maxHeader = 48
)

// appendHeader appends the header line of an n-slot trace.
func appendHeader(b []byte, n int) []byte {
	b = append(b, "# pktbuf slot trace, "...)
	b = strconv.AppendInt(b, int64(n), 10)
	return append(b, " slots\n"...)
}

// appendRecord appends e's record line: the one encoder of the format.
func appendRecord(b []byte, e Event) []byte {
	switch {
	case e.Arrival == pktbuf.None && e.Request == pktbuf.None:
		b = append(b, '.')
	case e.Request == pktbuf.None:
		b = strconv.AppendInt(append(b, 'a'), int64(e.Arrival), 10)
	case e.Arrival == pktbuf.None:
		b = strconv.AppendInt(append(b, 'r'), int64(e.Request), 10)
	default:
		b = strconv.AppendInt(append(b, 'a'), int64(e.Arrival), 10)
		b = strconv.AppendInt(append(b, " r"...), int64(e.Request), 10)
	}
	return append(b, '\n')
}

// Write serializes the trace. Records are appended in place: into a
// *bytes.Buffer's spare capacity directly (grown once to the worst
// case, so a reused buffer allocates nothing), and into a bufio.Writer
// over any other writer.
func (t *Trace) Write(w io.Writer) error {
	if buf, ok := w.(*bytes.Buffer); ok {
		buf.Grow(maxHeader + maxRecord*len(t.Events))
		b := appendHeader(buf.AvailableBuffer(), len(t.Events))
		for _, e := range t.Events {
			b = appendRecord(b, e)
		}
		buf.Write(b)
		return nil
	}
	// bufio.Writer errors are sticky: a failed write turns every later
	// one into a no-op and resurfaces at Flush.
	bw := bufio.NewWriter(w)
	bw.Write(appendHeader(bw.AvailableBuffer(), len(t.Events)))
	for _, e := range t.Events {
		if bw.Available() < maxRecord {
			bw.Flush()
		}
		bw.Write(appendRecord(bw.AvailableBuffer(), e))
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("trace: write: %w", err)
	}
	return nil
}

// Read parses a trace. A malformed line fails with ErrFormat; a read
// error, or a line longer than bufio.MaxScanTokenSize, fails with that
// error wrapped.
func Read(r io.Reader) (*Trace, error) {
	t := &Trace{}
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		e := Event{Arrival: pktbuf.None, Request: pktbuf.None}
		if text != "." {
			for _, tok := range strings.Fields(text) {
				if len(tok) < 2 {
					return nil, fmt.Errorf("%w %d: %q", ErrFormat, line, text)
				}
				// Queue ids are int32 on the datapath: a wider id must
				// not wrap into some other queue.
				n, err := strconv.ParseInt(tok[1:], 10, 32)
				if err != nil || n < 0 {
					return nil, fmt.Errorf("%w %d: %q", ErrFormat, line, text)
				}
				switch tok[0] {
				case 'a':
					e.Arrival = pktbuf.Queue(n)
				case 'r':
					e.Request = pktbuf.Queue(n)
				default:
					return nil, fmt.Errorf("%w %d: %q", ErrFormat, line, text)
				}
			}
		}
		t.Events = append(t.Events, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: read: %w", err)
	}
	return t, nil
}

// Capture runs the generators for the given number of slots against a
// live view and records the stimulus they produce. The view is needed
// because request policies are state-dependent; use it with a real
// buffer run (see Recorder) or a sim.View adapter.
func Capture(arr sim.ArrivalProcess, req sim.RequestPolicy, v sim.View, slots int) *Trace {
	t := &Trace{Events: make([]Event, 0, slots)}
	for s := 0; s < slots; s++ {
		t.Events = append(t.Events, Event{
			Arrival: arr.Next(uint64(s)),
			Request: req.Next(uint64(s), v),
		})
	}
	return t
}

// Recorder wraps an ArrivalProcess/RequestPolicy pair, transparently
// recording everything they emit while a sim.Runner drives them.
type Recorder struct {
	Arr sim.ArrivalProcess
	Req sim.RequestPolicy
	t   Trace
	// pending pairs the two halves of one slot.
	haveArrival bool
	arrival     pktbuf.Queue
}

// Next implements sim.ArrivalProcess.
func (r *Recorder) Next(slot uint64) pktbuf.Queue {
	q := r.Arr.Next(slot)
	r.arrival, r.haveArrival = q, true
	return q
}

// NextRequest records the request half of a slot; Recorder itself is
// used as both generator halves (see Halves).
func (r *Recorder) NextRequest(slot uint64, v sim.View) pktbuf.Queue {
	q := r.Req.Next(slot, v)
	a := pktbuf.None
	if r.haveArrival {
		a, r.haveArrival = r.arrival, false
	}
	r.t.Events = append(r.t.Events, Event{Arrival: a, Request: q})
	return q
}

// Trace returns the recorded trace so far.
func (r *Recorder) Trace() *Trace { return &r.t }

// requestHalf adapts Recorder's request side to sim.RequestPolicy.
type requestHalf struct{ r *Recorder }

func (h requestHalf) Next(slot uint64, v sim.View) pktbuf.Queue {
	return h.r.NextRequest(slot, v)
}

// Halves returns the two generator halves to plug into a sim.Runner.
func (r *Recorder) Halves() (sim.ArrivalProcess, sim.RequestPolicy) {
	return r, requestHalf{r}
}

// Replayer replays a trace as a sim.ArrivalProcess / sim.RequestPolicy
// pair. Requests are replayed verbatim: the trace must have been
// recorded against a behaviourally identical buffer (same acceptance
// decisions), which holds for any unbounded-DRAM configuration.
type Replayer struct {
	t   *Trace
	pos int
}

// NewReplayer wraps a trace.
func NewReplayer(t *Trace) *Replayer { return &Replayer{t: t} }

// Next implements sim.ArrivalProcess.
func (r *Replayer) Next(uint64) pktbuf.Queue {
	if r.pos >= len(r.t.Events) {
		return pktbuf.None
	}
	return r.t.Events[r.pos].Arrival
}

// request advances the slot cursor (the request half runs second in
// the Runner's slot loop).
func (r *Replayer) request(uint64, sim.View) pktbuf.Queue {
	if r.pos >= len(r.t.Events) {
		return pktbuf.None
	}
	q := r.t.Events[r.pos].Request
	r.pos++
	return q
}

// Halves returns the replaying generator pair.
func (r *Replayer) Halves() (sim.ArrivalProcess, sim.RequestPolicy) {
	return r, replayRequest{r}
}

type replayRequest struct{ r *Replayer }

func (h replayRequest) Next(slot uint64, v sim.View) pktbuf.Queue {
	return h.r.request(slot, v)
}
