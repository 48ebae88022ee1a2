package wire

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"repro/pktbuf"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)

	hello := Hello{Flows: 12}
	if err := w.WriteFrame(THello, hello.AppendTo(nil)); err != nil {
		t.Fatal(err)
	}
	welcome := Welcome{Flows: 12, IngressRing: 256, Window: 4096}
	if err := w.WriteFrame(TWelcome, welcome.AppendTo(nil)); err != nil {
		t.Fatal(err)
	}
	flows := []pktbuf.Queue{3, 7, 11}
	if err := w.WriteCells(TFlows, Deliveries, flows); err != nil {
		t.Fatal(err)
	}
	submit := []pktbuf.Queue{3, 3, 7, 11, 3}
	if err := w.WriteCells(TSubmit, Arrivals, submit); err != nil {
		t.Fatal(err)
	}
	rej := Reject{Code: CodeIngressFull, Accepted: 2, Dropped: 3, RetrySlots: 64}
	if err := w.WriteFrame(TReject, rej.AppendTo(nil)); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteFrame(TDrain, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteFrame(TBye, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r := NewReader(&buf)
	typ, p, err := r.Next()
	if err != nil || typ != THello {
		t.Fatalf("frame 1: %v %v", typ, err)
	}
	if h, err := ParseHello(p); err != nil || h != hello {
		t.Fatalf("ParseHello = %+v, %v", h, err)
	}
	typ, p, err = r.Next()
	if err != nil || typ != TWelcome {
		t.Fatalf("frame 2: %v %v", typ, err)
	}
	if wl, err := ParseWelcome(p); err != nil || wl != welcome {
		t.Fatalf("ParseWelcome = %+v, %v", wl, err)
	}
	typ, p, err = r.Next()
	if err != nil || typ != TFlows {
		t.Fatalf("frame 3: %v %v", typ, err)
	}
	var gotFlows []pktbuf.Queue
	if err := DecodeCells(p, Deliveries, func(q pktbuf.Queue) error {
		gotFlows = append(gotFlows, q)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(gotFlows) != len(flows) {
		t.Fatalf("flows = %v, want %v", gotFlows, flows)
	}
	for i := range flows {
		if gotFlows[i] != flows[i] {
			t.Fatalf("flows = %v, want %v", gotFlows, flows)
		}
	}
	typ, p, err = r.Next()
	if err != nil || typ != TSubmit {
		t.Fatalf("frame 4: %v %v", typ, err)
	}
	var gotSub []pktbuf.Queue
	if err := DecodeCells(p, Arrivals, func(q pktbuf.Queue) error {
		gotSub = append(gotSub, q)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(gotSub) != len(submit) {
		t.Fatalf("submit = %v, want %v", gotSub, submit)
	}
	typ, p, err = r.Next()
	if err != nil || typ != TReject {
		t.Fatalf("frame 5: %v %v", typ, err)
	}
	if got, err := ParseReject(p); err != nil || got != rej {
		t.Fatalf("ParseReject = %+v, %v", got, err)
	}
	for _, want := range []Type{TDrain, TBye} {
		typ, p, err = r.Next()
		if err != nil || typ != want || len(p) != 0 {
			t.Fatalf("trailer frame: %v %q %v, want %v", typ, p, err, want)
		}
	}
	if _, _, err := r.Next(); err != io.EOF {
		t.Fatalf("after last frame: %v, want io.EOF", err)
	}
}

func TestDecodeCellsWrongSide(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteCells(TSubmit, Arrivals, []pktbuf.Queue{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	_, p, err := NewReader(&buf).Next()
	if err != nil {
		t.Fatal(err)
	}
	if err := DecodeCells(p, Deliveries, func(pktbuf.Queue) error { return nil }); !errors.Is(err, ErrFrame) {
		t.Fatalf("wrong-side decode: %v, want ErrFrame", err)
	}
	// Mixed records ("a3 r7") are not cell frames either.
	if err := DecodeCells([]byte("a3 r7\n"), Arrivals, func(pktbuf.Queue) error { return nil }); !errors.Is(err, ErrFrame) {
		t.Fatalf("mixed-record decode: %v, want ErrFrame", err)
	}
	// Idle records are not cells.
	if err := DecodeCells([]byte(".\n"), Arrivals, func(pktbuf.Queue) error { return nil }); !errors.Is(err, ErrFrame) {
		t.Fatalf("idle-record decode: %v, want ErrFrame", err)
	}
}

func TestDecodeCellsCallbackError(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteCells(TSubmit, Arrivals, []pktbuf.Queue{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	_, p, err := NewReader(&buf).Next()
	if err != nil {
		t.Fatal(err)
	}
	sentinel := errors.New("stop")
	n := 0
	if err := DecodeCells(p, Arrivals, func(pktbuf.Queue) error {
		n++
		if n == 2 {
			return sentinel
		}
		return nil
	}); !errors.Is(err, sentinel) {
		t.Fatalf("callback error: %v, want sentinel", err)
	}
	if n != 2 {
		t.Fatalf("callback ran %d times, want 2", n)
	}
}

func TestOversizeFrames(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteFrame(TSubmit, make([]byte, MaxPayload+1)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversize write: %v, want ErrTooLarge", err)
	}
	// A hostile header announcing an oversize payload is rejected
	// before any buffering.
	hdr := []byte{byte(TSubmit), 0xFF, 0xFF, 0xFF, 0xFF}
	if _, _, err := NewReader(bytes.NewReader(hdr)).Next(); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversize read: %v, want ErrTooLarge", err)
	}
}

func TestTruncatedFrame(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteCells(TSubmit, Arrivals, []pktbuf.Queue{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	for _, cut := range []int{1, 3, len(whole) - 1} {
		if _, _, err := NewReader(bytes.NewReader(whole[:cut])).Next(); err != io.ErrUnexpectedEOF {
			t.Fatalf("cut at %d: %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
}

func TestParseControlErrors(t *testing.T) {
	if _, err := ParseHello([]byte("flows=0")); !errors.Is(err, ErrFrame) {
		t.Fatalf("flows=0: %v, want ErrFrame", err)
	}
	if _, err := ParseHello([]byte("garbage")); !errors.Is(err, ErrFrame) {
		t.Fatalf("garbage hello: %v, want ErrFrame", err)
	}
	if _, err := ParseReject([]byte("ok=1 dropped=2")); !errors.Is(err, ErrFrame) {
		t.Fatalf("codeless reject: %v, want ErrFrame", err)
	}
	if _, err := ParseWelcome([]byte("flows=abc")); !errors.Is(err, ErrFrame) {
		t.Fatalf("bad welcome value: %v, want ErrFrame", err)
	}
}

func TestWriterReuseNoGrowth(t *testing.T) {
	// Repeated WriteCells calls reuse the writer's encode scratch.
	var sink strings.Builder
	w := NewWriter(&sink)
	qs := []pktbuf.Queue{1, 2, 3, 4}
	for i := 0; i < 100; i++ {
		if err := w.WriteCells(TDeliver, Deliveries, qs); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(strings.NewReader(sink.String()))
	for i := 0; i < 100; i++ {
		typ, p, err := r.Next()
		if err != nil || typ != TDeliver {
			t.Fatalf("frame %d: %v %v", i, typ, err)
		}
		n := 0
		if err := DecodeCells(p, Deliveries, func(q pktbuf.Queue) error {
			if q != qs[n] {
				t.Fatalf("frame %d cell %d = %d, want %d", i, n, q, qs[n])
			}
			n++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if n != len(qs) {
			t.Fatalf("frame %d: %d cells, want %d", i, n, len(qs))
		}
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestWriteCellsAllocs pins the Writer's allocation claim: a warmed
// WriteCells of a 64-cell frame allocates nothing, whatever the queue
// ids' magnitude (the trace encoder appends digits in place into the
// reused frame buffer; fmt would box ids ≥ 256).
func TestWriteCellsAllocs(t *testing.T) {
	if raceEnabled {
		// The race detector makes sync.Pool drop entries at random, so
		// fmt's printer pool allocates and the counts mean nothing.
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, tc := range []struct {
		base int
		max  float64
	}{
		{0, 0},
		{1 << 20, 0},
	} {
		w := NewWriter(io.Discard)
		qs := make([]pktbuf.Queue, 64)
		for i := range qs {
			qs[i] = pktbuf.Queue(tc.base + i)
		}
		if err := w.WriteCells(TSubmit, Arrivals, qs); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if err := w.WriteCells(TSubmit, Arrivals, qs); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > tc.max {
			t.Errorf("ids from %d: WriteCells allocates %.1f times per 64-cell frame, want ≤ %.0f",
				tc.base, allocs, tc.max)
		}
	}
}
