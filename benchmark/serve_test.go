package main

import (
	"net"
	"strings"
	"testing"
	"time"

	"repro/pktbuf"
	"repro/pktbuf/serve"
)

// testConn is a benchConn with no client behind it — stamps and
// deliveries are fed by hand — with credits for inFlight bursts of
// burst cells already taken.
func testConn(flows []pktbuf.Queue, burst, inFlight int) *benchConn {
	bc := newBenchConn(flows, 8, make([]uint8, 4), time.Now())
	bc.arm(burst)
	for i := 0; i < inFlight; i++ {
		<-bc.tokens
	}
	bc.rec = &latRecorder{}
	return bc
}

// recorded returns the histogram of every latency sample so far.
func recorded(bc *benchConn) *hist {
	var h hist
	for _, w := range bc.rec.windows {
		h.merge(w)
	}
	return &h
}

func TestStampFIFOStaysAlignedAcrossBursts(t *testing.T) {
	flows := []pktbuf.Queue{2, 5}
	bc := testConn(flows, 4, 2)
	// Two bursts, stamped 1 µs and 3 µs; queue 5 gets cells of both.
	bc.stampBurst([]pktbuf.Queue{2, 5, 5, 2}, 1000, noSlot)
	bc.stampBurst([]pktbuf.Queue{5, 5, 2, 2}, 3000, noSlot)
	// Deliveries interleave across queues but are in order per queue.
	seq := map[pktbuf.Queue]uint64{}
	deliver := func(q pktbuf.Queue, now int64) {
		bc.deliver(pktbuf.Cell{Queue: q, Seq: seq[q]}, now)
		seq[q]++
	}
	deliver(5, 5000) // burst 1: 4 µs
	deliver(5, 5000) // burst 1: 4 µs
	deliver(5, 5000) // burst 2: queue 5's third cell carries the second stamp, 2 µs
	deliver(2, 6000) // burst 1: 5 µs
	deliver(2, 6000) // burst 1: 5 µs
	deliver(5, 7000) // burst 2: 4 µs
	deliver(2, 7000) // burst 2: 4 µs
	deliver(2, 7000) // burst 2: 4 µs
	if err := bc.failure.Load(); err != nil {
		t.Fatalf("reader flagged: %v", *err)
	}
	h := recorded(bc)
	// Samples: 4000×5, 2000×1, 5000×2. A misaligned FIFO would have
	// paired queue 5's third cell with a 1 µs stamp (latency 4000).
	if got := h.counts[histIndex(2000)]; got != 1 {
		t.Errorf("%d samples of 2 µs, want 1", got)
	}
	if got := h.counts[histIndex(5000)]; got != 2 {
		t.Errorf("%d samples of 5 µs, want 2", got)
	}
	if got := h.counts[histIndex(4000)]; got != 5 {
		t.Errorf("%d samples of 4 µs, want 5", got)
	}
	// Eight cells back = both credits returned.
	if got, want := len(bc.tokens), cap(bc.tokens); got != want {
		t.Errorf("%d credits, want the channel full at %d", got, want)
	}
	if bc.delivered.Load() != 8 {
		t.Errorf("delivered = %d, want 8", bc.delivered.Load())
	}
}

func TestSamplesDroppedAfterReject(t *testing.T) {
	bc := testConn([]pktbuf.Queue{0, 1}, 2, 2)
	bc.stampBurst([]pktbuf.Queue{0, 1}, 100, noSlot)
	bc.stampBurst([]pktbuf.Queue{0, 1}, 200, noSlot)
	bc.deliver(pktbuf.Cell{Queue: 0, Seq: 0}, 1000)
	// The connection sees a Reject: the refused cells' stamps stay
	// queued, so later pairings are off by an unknown amount.
	bc.poisoned.Store(true)
	bc.deliver(pktbuf.Cell{Queue: 1, Seq: 0}, 1000)
	bc.deliver(pktbuf.Cell{Queue: 0, Seq: 1}, 1000)
	if got := recorded(bc).n; got != 1 {
		t.Errorf("%d samples recorded, want only the one before the reject", got)
	}
	if bc.droppedLat != 2 {
		t.Errorf("droppedLat = %d, want 2", bc.droppedLat)
	}
	if bc.delivered.Load() != 3 {
		t.Errorf("delivered = %d, want 3 (dropped samples still count as deliveries)", bc.delivered.Load())
	}
}

func TestReaderFlagsBrokenSequenceAndForeignQueue(t *testing.T) {
	bc := testConn([]pktbuf.Queue{3}, 1, 1)
	bc.stampBurst([]pktbuf.Queue{3}, 0, noSlot)
	bc.deliver(pktbuf.Cell{Queue: 3, Seq: 1}, 10) // want seq 0
	if err := bc.failure.Load(); err == nil || !strings.Contains((*err).Error(), "seq 1, want 0") {
		t.Errorf("out-of-sequence delivery not flagged: %v", err)
	}
	bc = testConn([]pktbuf.Queue{3}, 1, 1)
	bc.deliver(pktbuf.Cell{Queue: 4, Seq: 0}, 10)
	if err := bc.failure.Load(); err == nil || !strings.Contains((*err).Error(), "does not own") {
		t.Errorf("foreign queue not flagged: %v", err)
	}
	bc = testConn([]pktbuf.Queue{3}, 1, 1)
	bc.deliver(pktbuf.Cell{Queue: 3, Seq: 0}, 10)
	if err := bc.failure.Load(); err == nil || !strings.Contains((*err).Error(), "never submitted") {
		t.Errorf("delivery without a stamp not flagged: %v", err)
	}
}

// A miniature serve slice against an in-process serve.Server: the
// client side of both serve workloads (connect, credit-gated submit
// loops, stamping, the reader-side checks, Bye and the ledger of
// delivered = submitted − rejected) without building the daemon.
func TestServeSliceInProcess(t *testing.T) {
	srv, err := serve.NewServer(serve.Config{Buffer: daemonBuffer})
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(lis) }()
	defer func() {
		srv.Close()
		<-served
	}()
	for _, paced := range []bool{false, true} {
		w := newServeWorkload(1, paced, nil)
		w.d = &daemon{dataAddr: lis.Addr().String(), exited: make(chan struct{})}
		if err := w.connect(); err != nil {
			t.Fatal(err)
		}
		for _, bc := range w.conns {
			bc.rec = &latRecorder{t0: time.Since(w.epoch).Nanoseconds()}
		}
		cells, period := w.burst()
		tr := newTracer()
		if err := w.drive(cells, period, 0, 100*time.Millisecond, tr); err != nil {
			t.Fatalf("paced=%v: drive: %v", paced, err)
		}
		if err := w.drive(closedBurst, 0, 2048, 0, nil); err != nil {
			t.Fatalf("paced=%v: fixed-work drive: %v", paced, err)
		}
		if err := w.closeConns(); err != nil {
			t.Fatalf("paced=%v: %v", paced, err)
		}
		if w.out.attempted < 2*2048 || w.out.failed != 0 {
			t.Errorf("paced=%v: attempted=%d failed=%d", paced, w.out.attempted, w.out.failed)
		}
		var samples uint64
		for _, bc := range w.conns {
			samples += recorded(bc).n
			if paced && bc.late.n == 0 {
				t.Error("paced run recorded no generator lateness")
			}
		}
		if samples != w.out.attempted {
			t.Errorf("paced=%v: %d latency samples for %d cells", paced, samples, w.out.attempted)
		}
		bursts := 0
		for _, s := range tr.spans {
			if s.Name == spanBurst {
				bursts++
			}
		}
		if bursts == 0 {
			t.Errorf("paced=%v: traced drive recorded no completed burst span", paced)
		}
	}
}
