package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the boundary. Spans of one burst (serve) or one driver call
// (in-process) share Burst; Parent is the ID of the span that caused
// this one, 0 for a root.
type span struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent"`
	Burst   uint64 `json:"burst"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// Span names: the layer's function the span wraps, or the harness's
// own grouping spans (window, burst, credit wait).
const (
	spanWindow      = "window"
	spanBurst       = "burst"
	spanCreditWait  = "harness.credit_wait"
	spanSubmit      = "client.Submit"
	spanTickBatch   = "pktbuf.TickBatch"
	spanRouterOffer = "router.Offer"
	spanRouterStep  = "router.StepBatch"
)

// maxSpans caps the in-memory trace (~50 MB); spans past it are
// counted, not kept.
const maxSpans = 1 << 20

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so call sites need no branch.
type tracer struct {
	epoch  time.Time
	nextID atomic.Uint64

	mu      sync.Mutex
	spans   []span
	dropped uint64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// newID hands out a span ID ahead of the span's end, so children can
// name a parent that is recorded after them (0 when the tracer is
// off).
func (t *tracer) newID() uint64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

// record stores one finished span.
func (t *tracer) record(id, parent, burst uint64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return
	}
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Burst: burst, Name: name,
		StartNS: start.Sub(t.epoch).Nanoseconds(), EndNS: end.Sub(t.epoch).Nanoseconds(),
	})
}

func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans) + int(t.dropped)
}

// writeTo writes the spans as JSON lines.
func (t *tracer) writeTo(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("trace: write %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace: write %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace: close %s: %w", path, err)
	}
	fmt.Fprintf(os.Stderr, "trace: %d spans (%d dropped past the cap) -> %s\n", len(t.spans), t.dropped, path)
	return nil
}
