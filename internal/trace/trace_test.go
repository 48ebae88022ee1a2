package trace

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/sim"
)

func TestWriteReadRoundTrip(t *testing.T) {
	in := &Trace{Events: []Event{
		{Arrival: 3, Request: 7},
		{Arrival: 0, Request: cell.NoQueue},
		{Arrival: cell.NoQueue, Request: 2},
		{Arrival: cell.NoQueue, Request: cell.NoQueue},
	}}
	var buf bytes.Buffer
	if err := in.Write(&buf); err != nil {
		t.Fatal(err)
	}
	out, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Events) != len(in.Events) {
		t.Fatalf("got %d events", len(out.Events))
	}
	for i := range in.Events {
		if out.Events[i] != in.Events[i] {
			t.Errorf("event %d: %+v != %+v", i, out.Events[i], in.Events[i])
		}
	}
}

func TestReadFormat(t *testing.T) {
	good := "# header\n\na1 r2\n.\nr0\na5\n"
	tr, err := Read(strings.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) != 4 {
		t.Fatalf("events = %d", len(tr.Events))
	}
	for _, bad := range []string{"x3\n", "a\n", "a-1\n", "azz\n"} {
		if _, err := Read(strings.NewReader(bad)); !errors.Is(err, ErrFormat) {
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
		tr, err := Read(strings.NewReader(tc.line + "\n"))
		if !tc.ok {
			if !errors.Is(err, ErrFormat) {
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

func TestCaptureGenerators(t *testing.T) {
	arr, _ := sim.NewRoundRobinArrivals(4, 1.0)
	req, _ := sim.NewRoundRobinDrain(4)
	v := staticView{n: 5}
	tr := Capture(arr, req, v, 8)
	if len(tr.Events) != 8 {
		t.Fatalf("captured %d", len(tr.Events))
	}
	if tr.Events[0].Arrival != 0 || tr.Events[1].Arrival != 1 {
		t.Errorf("arrivals not round-robin: %+v", tr.Events[:2])
	}
}

type staticView struct{ n int }

func (v staticView) Requestable(cell.QueueID) int { return v.n }
func (v staticView) Len(cell.QueueID) int         { return v.n }

// TestRecordReplayIdentical records a live adversarial run and replays
// it against a fresh identical buffer: the delivered streams must
// match slot for slot.
func TestRecordReplayIdentical(t *testing.T) {
	mkBuf := func() *core.Buffer {
		b, err := core.New(core.Config{Q: 4, B: 8, Bsmall: 2, Banks: 16})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	// Record.
	arr, _ := sim.NewUniformArrivals(4, 0.9, 5)
	req, _ := sim.NewUniformRequests(4, 0.8, 6)
	rec := &Recorder{Arr: arr, Req: req}
	ra, rr := rec.Halves()
	var recorded []cell.Cell
	r1 := &sim.Runner{Buffer: mkBuf(), Arrivals: ra, Requests: rr,
		OnDeliver: func(c cell.Cell, _ bool) { recorded = append(recorded, c) }}
	if _, err := r1.Run(6000); err != nil {
		t.Fatal(err)
	}
	tr := rec.Trace()
	if len(tr.Events) != 6000 {
		t.Fatalf("recorded %d events", len(tr.Events))
	}

	// Serialize + parse (exercise the wire format end to end).
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}

	// Replay.
	var replayed []cell.Cell
	pa, pr := NewReplayer(parsed).Halves()
	r2 := &sim.Runner{Buffer: mkBuf(), Arrivals: pa, Requests: pr,
		OnDeliver: func(c cell.Cell, _ bool) { replayed = append(replayed, c) }}
	if _, err := r2.Run(6000); err != nil {
		t.Fatal(err)
	}
	if len(replayed) != len(recorded) {
		t.Fatalf("replayed %d cells, recorded %d", len(replayed), len(recorded))
	}
	for i := range recorded {
		if recorded[i] != replayed[i] {
			t.Fatalf("delivery %d: %v != %v", i, recorded[i], replayed[i])
		}
	}
}

func TestReplayerExhaustion(t *testing.T) {
	tr := &Trace{Events: []Event{{Arrival: 1, Request: cell.NoQueue}}}
	pa, pr := NewReplayer(tr).Halves()
	if q := pa.Next(0); q != 1 {
		t.Errorf("arrival = %d", q)
	}
	if q := pr.Next(0, staticView{}); q != cell.NoQueue {
		t.Errorf("request = %d", q)
	}
	// Past the end: idle forever.
	if q := pa.Next(1); q != cell.NoQueue {
		t.Errorf("post-end arrival = %d", q)
	}
	if q := pr.Next(1, staticView{}); q != cell.NoQueue {
		t.Errorf("post-end request = %d", q)
	}
}
