package trace_test

import (
	"bufio"
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/pktbuf"
	"repro/pktbuf/sim"
	"repro/pktbuf/trace"
)

// TestWriteReadRoundTrip: every record kind, and queue ids at both
// ends of the accepted range, read back exactly as written.
func TestWriteReadRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name   string
		events []trace.Event
	}{
		{"record_kinds", []trace.Event{
			{Arrival: 3, Request: 7},
			{Arrival: 0, Request: pktbuf.None},
			{Arrival: pktbuf.None, Request: 2},
			{Arrival: pktbuf.None, Request: pktbuf.None},
		}},
		{"int32_bounds", []trace.Event{
			{Arrival: 2147483647, Request: 0},
			{Arrival: pktbuf.None, Request: 2147483647},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := &trace.Trace{Events: tc.events}
			var buf bytes.Buffer
			if err := in.Write(&buf); err != nil {
				t.Fatal(err)
			}
			out, err := trace.Read(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if len(out.Events) != len(in.Events) {
				t.Fatalf("round trip: %d events, want %d", len(out.Events), len(in.Events))
			}
			for i := range in.Events {
				if out.Events[i] != in.Events[i] {
					t.Errorf("event %d = %+v, want %+v", i, out.Events[i], in.Events[i])
				}
			}
		})
	}
}

// TestWriteBytes pins the encoding byte for byte, header line
// included: a trace with all four record kinds must serialize exactly
// as traces recorded by earlier revisions did.
func TestWriteBytes(t *testing.T) {
	in := &trace.Trace{Events: []trace.Event{
		{Arrival: 3, Request: 7},
		{Arrival: 0, Request: pktbuf.None},
		{Arrival: pktbuf.None, Request: 2},
		{Arrival: pktbuf.None, Request: pktbuf.None},
	}}
	var buf bytes.Buffer
	if err := in.Write(&buf); err != nil {
		t.Fatal(err)
	}
	const want = "# pktbuf slot trace, 4 slots\na3 r7\na0\nr2\n.\n"
	if got := buf.String(); got != want {
		t.Errorf("Write = %q, want %q", got, want)
	}

	// A *bytes.Buffer is encoded into in place, any other writer
	// through a bufio.Writer: both must give the same bytes, also for
	// a trace longer than one bufio buffer.
	long := &trace.Trace{}
	for i := range 1000 {
		long.Events = append(long.Events, trace.Event{Arrival: pktbuf.Queue(1<<30 + i), Request: pktbuf.Queue(i % 7)})
	}
	for _, tr := range []*trace.Trace{in, long} {
		var direct bytes.Buffer
		var viaBufio strings.Builder
		if err := tr.Write(&direct); err != nil {
			t.Fatal(err)
		}
		if err := tr.Write(&viaBufio); err != nil {
			t.Fatal(err)
		}
		if direct.String() != viaBufio.String() {
			t.Errorf("%d events: bytes.Buffer and bufio encodings differ", len(tr.Events))
		}
	}
}

// failingWriter rejects every write.
type failingWriter struct{ err error }

func (w failingWriter) Write([]byte) (int, error) { return 0, w.err }

func TestWriteError(t *testing.T) {
	sentinel := errors.New("disk full")
	tr := &trace.Trace{Events: []trace.Event{{Arrival: 1, Request: pktbuf.None}}}
	if err := tr.Write(failingWriter{sentinel}); !errors.Is(err, sentinel) {
		t.Errorf("Write to a failing writer: err = %v, want it to wrap %v", err, sentinel)
	}
}

func TestReadFormat(t *testing.T) {
	good := "# header\n\na1 r2\n.\nr0\na5\n"
	tr, err := trace.Read(strings.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	want := []trace.Event{
		{Arrival: 1, Request: 2},
		{Arrival: pktbuf.None, Request: pktbuf.None},
		{Arrival: pktbuf.None, Request: 0},
		{Arrival: 5, Request: pktbuf.None},
	}
	if len(tr.Events) != len(want) {
		t.Fatalf("events = %d, want %d", len(tr.Events), len(want))
	}
	for i := range want {
		if tr.Events[i] != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, tr.Events[i], want[i])
		}
	}
	for _, bad := range []string{"x3\n", "a\n", "a-1\n", "azz\n"} {
		if _, err := trace.Read(strings.NewReader(bad)); !errors.Is(err, trace.ErrFormat) {
			t.Errorf("Read(%q) err = %v, want ErrFormat", bad, err)
		}
	}
}

// TestReadQueueRange pins that queue ids outside int32 are rejected
// rather than wrapped into another queue.
func TestReadQueueRange(t *testing.T) {
	for _, tc := range []struct {
		line string
		ok   bool
	}{
		{"a2147483647", true},
		{"r2147483647", true},
		{"a2147483648", false},
		{"a4294967298", false},
		{"r20000000000", false},
	} {
		tr, err := trace.Read(strings.NewReader(tc.line + "\n"))
		if !tc.ok {
			if !errors.Is(err, trace.ErrFormat) {
				t.Errorf("Read(%q) err = %v, want ErrFormat", tc.line, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("Read(%q): %v", tc.line, err)
		}
		if e := tr.Events[0]; e.Arrival != 2147483647 && e.Request != 2147483647 {
			t.Errorf("Read(%q) = %+v", tc.line, e)
		}
	}
}

// FuzzTraceRoundTrip feeds arbitrary text through Read: it must either
// fail with ErrFormat, or yield events whose encoding reads back to
// the same events and re-encodes to the same bytes.
func FuzzTraceRoundTrip(f *testing.F) {
	for _, seed := range []string{
		"a2147483647\n",
		"a2147483648\n",
		".\n",
		"a3 r7\n",
		"r2\na0\n",
		"# pktbuf slot trace, 2 slots\n.\na1 r1\n",
		"# comment only\n\n",
		"a-1\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		in, err := trace.Read(strings.NewReader(text))
		if err != nil {
			// A line longer than the scanner's token limit is the one
			// failure that is not a format error.
			if !errors.Is(err, trace.ErrFormat) && !errors.Is(err, bufio.ErrTooLong) {
				t.Fatalf("Read: non-ErrFormat error %v", err)
			}
			return
		}
		var enc bytes.Buffer
		if err := in.Write(&enc); err != nil {
			t.Fatalf("Write: %v", err)
		}
		out, err := trace.Read(bytes.NewReader(enc.Bytes()))
		if err != nil {
			t.Fatalf("re-read %q: %v", enc.String(), err)
		}
		if len(out.Events) != len(in.Events) {
			t.Fatalf("re-read: %d events, want %d", len(out.Events), len(in.Events))
		}
		for i := range in.Events {
			if out.Events[i] != in.Events[i] {
				t.Fatalf("event %d = %+v, want %+v", i, out.Events[i], in.Events[i])
			}
		}
		var again bytes.Buffer
		if err := out.Write(&again); err != nil {
			t.Fatalf("re-Write: %v", err)
		}
		if !bytes.Equal(again.Bytes(), enc.Bytes()) {
			t.Fatalf("encoding not stable:\n%q\n%q", enc.String(), again.String())
		}
	})
}

func TestReadRejectsMalformed(t *testing.T) {
	for _, text := range []string{"x3\n", "a\n", "a-2\n", "abc def\n"} {
		if _, err := trace.Read(strings.NewReader(text)); !errors.Is(err, trace.ErrFormat) {
			t.Errorf("Read(%q) err = %v, want ErrFormat", text, err)
		}
	}
}

func newBuffer(t testing.TB) *pktbuf.Buffer {
	t.Helper()
	buf, err := pktbuf.New(pktbuf.Config{
		Queues: 8, LineRate: pktbuf.OC768, Granularity: 2, Banks: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestRecordReplay records a live run from slot 0 and replays it
// against a fresh identical buffer: the delivered streams must match
// cell for cell and the statistics exactly, both for an idle-stable
// drain and for a random request policy.
func TestRecordReplay(t *testing.T) {
	const slots = 20000
	for _, tc := range []struct {
		name string
		gen  func() (sim.ArrivalProcess, sim.RequestPolicy)
	}{
		{"uniform/rrdrain", func() (sim.ArrivalProcess, sim.RequestPolicy) {
			arr, _ := sim.NewUniformArrivals(8, 0.7, 5)
			req, _ := sim.NewRoundRobinDrain(8)
			return arr, req
		}},
		{"uniform/uniform", func() (sim.ArrivalProcess, sim.RequestPolicy) {
			arr, _ := sim.NewUniformArrivals(8, 0.9, 5)
			req, _ := sim.NewUniformRequests(8, 0.8, 6)
			return arr, req
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			arr, req := tc.gen()
			rec := &trace.Recorder{Arr: arr, Req: req}
			recArr, recReq := rec.Halves()
			var recorded []pktbuf.Cell
			r := &sim.Runner{Buffer: newBuffer(t), Arrivals: recArr, Requests: recReq,
				OnDeliver: func(c pktbuf.Cell, _ bool) { recorded = append(recorded, c) }}
			want, err := r.Run(slots)
			if err != nil {
				t.Fatal(err)
			}
			if got := len(rec.Trace().Events); got != slots {
				t.Fatalf("recorded %d events, want %d", got, slots)
			}

			var wire bytes.Buffer
			if err := rec.Trace().Write(&wire); err != nil {
				t.Fatal(err)
			}
			tr, err := trace.Read(&wire)
			if err != nil {
				t.Fatal(err)
			}
			repArr, repReq := trace.NewReplayer(tr).Halves()
			var replayed []pktbuf.Cell
			r2 := &sim.Runner{Buffer: newBuffer(t), Arrivals: repArr, Requests: repReq,
				OnDeliver: func(c pktbuf.Cell, _ bool) { replayed = append(replayed, c) }}
			got, err := r2.Run(slots)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("replayed run diverges:\nwant %+v\ngot  %+v", want, got)
			}
			if len(recorded) == 0 || len(replayed) != len(recorded) {
				t.Fatalf("replayed %d cells, recorded %d", len(replayed), len(recorded))
			}
			for i := range recorded {
				if recorded[i] != replayed[i] {
					t.Fatalf("delivery %d: %+v != %+v", i, recorded[i], replayed[i])
				}
			}
		})
	}
}

// TestReplayerExhaustion: past the end of the trace each half of the
// replayer returns None on every call instead of repeating.
func TestReplayerExhaustion(t *testing.T) {
	tr := &trace.Trace{Events: []trace.Event{{Arrival: 1, Request: pktbuf.None}}}
	arr, req := trace.NewReplayer(tr).Halves()
	view := fixedView{}
	if q := arr.Next(0); q != 1 {
		t.Errorf("arrival = %d, want 1", q)
	}
	if q := req.Next(0, view); q != pktbuf.None {
		t.Errorf("request = %d, want None", q)
	}
	if q := arr.Next(1); q != pktbuf.None {
		t.Errorf("post-end arrival = %d, want None", q)
	}
	if q := req.Next(1, view); q != pktbuf.None {
		t.Errorf("post-end request = %d, want None", q)
	}
}

// TestReplayerExhausted: past the end of the trace the replayer goes
// idle instead of repeating.
func TestReplayerExhausted(t *testing.T) {
	tr := &trace.Trace{Events: []trace.Event{{Arrival: 1, Request: pktbuf.None}}}
	arr, req := trace.NewReplayer(tr).Halves()
	buf := newBuffer(t)
	r := &sim.Runner{Buffer: buf, Arrivals: arr, Requests: req}
	res, err := r.Run(100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Arrivals != 1 || res.Stats.Requests != 0 {
		t.Errorf("stats = %+v, want exactly one arrival", res.Stats)
	}
}

// fixedView reports the same occupancy for every queue.
type fixedView struct{ n int }

func (v fixedView) Requestable(pktbuf.Queue) int { return v.n }
func (v fixedView) Len(pktbuf.Queue) int         { return v.n }

func TestCapture(t *testing.T) {
	arr, _ := sim.NewRoundRobinArrivals(4, 1.0)
	tr := trace.Capture(arr, sim.NewIdleRequests(), newBuffer(t), 16)
	if len(tr.Events) != 16 {
		t.Fatalf("captured %d events, want 16", len(tr.Events))
	}
	for i, e := range tr.Events {
		if e.Arrival != pktbuf.Queue(i%4) || e.Request != pktbuf.None {
			t.Errorf("event %d = %+v", i, e)
		}
	}

}

// TestCaptureGenerators: a state-dependent policy is captured against
// the view it is given; the round-robin drain cycles over a view where
// every queue is requestable.
func TestCaptureGenerators(t *testing.T) {
	arr, _ := sim.NewRoundRobinArrivals(4, 1.0)
	req, _ := sim.NewRoundRobinDrain(4)
	tr := trace.Capture(arr, req, fixedView{n: 5}, 8)
	if len(tr.Events) != 8 {
		t.Fatalf("captured %d events, want 8", len(tr.Events))
	}
	for i, e := range tr.Events {
		if want := pktbuf.Queue(i % 4); e.Arrival != want || e.Request != want {
			t.Errorf("event %d = %+v, want arrival and request %d", i, e, want)
		}
	}
}
