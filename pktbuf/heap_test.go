package pktbuf_test

import (
	"runtime"
	"testing"

	"repro/pktbuf"
)

// TestBufferHeapAfterWarmup bounds the live heap a buffer of the §3
// adversary's dense shape holds once warm: Q=512, b=4, OC-3072, 256
// banks, ECQF, 8 cells per queue pre-loaded, then 2^20 slots of one
// arrival and one request per slot, both cycling the queues
// round-robin. The tail SRAM keeps its unpromised cells as counters,
// and a block of b cells is one 16-byte run record (queue and first
// sequence number) in the DRAM's slab that moves between the tail
// SRAM, the DRAM and the head SRAM by handle, on one list per queue
// from its write reservation to its last pop, so the heap holds 16/b
// bytes per staged or resident cell, plus the per-queue headers (the
// tail queue, the 40-byte list record, the MMA ledgers and the ECQF
// window links) and one pipeline ring.
func TestBufferHeapAfterWarmup(t *testing.T) {
	if testing.Short() {
		t.Skip("ticks 2^20 slots")
	}
	const (
		queues, fill, batch = 512, 8, 512
		slots               = 1 << 20
	)
	steady := make([]pktbuf.Input, batch)
	load := make([]pktbuf.Input, batch)
	for i := range steady {
		q := pktbuf.Queue(i % queues)
		steady[i] = pktbuf.Input{Arrival: q, Request: q}
		load[i] = pktbuf.Input{Arrival: q, Request: pktbuf.None}
	}
	outs := make([]pktbuf.Output, batch)

	before := liveHeap()
	buf, err := pktbuf.New(pktbuf.Config{Queues: queues, LineRate: pktbuf.OC3072, Granularity: 4, Banks: 256, MMA: pktbuf.ECQF})
	if err != nil {
		t.Fatal(err)
	}
	tick := func(in []pktbuf.Input) {
		if _, err := buf.TickBatch(in, outs); err != nil {
			t.Fatalf("slot %d: %v", buf.Now(), err)
		}
	}
	for i := 0; i < fill*queues/batch; i++ {
		tick(load)
	}
	for i := 0; i < slots/batch; i++ {
		tick(steady)
	}
	grew := int64(liveHeap()) - int64(before)
	if st := buf.Stats(); !st.Clean() || st.Deliveries == 0 {
		t.Fatalf("run not clean: %+v", st)
	}
	if grew > 175<<10 {
		t.Errorf("buffer holds %d KB of live heap after warm-up, want ≤ 175 KB", grew>>10)
	}
	t.Logf("buffer live heap after %d slots: %d KB", slots, grew>>10)
	runtime.KeepAlive(buf)
}

// TestEmptyEngineBytesPerQueue bounds what an empty buffer costs per
// queue: the live heap pktbuf.New adds at Q = 65 536, b = 4 (OC-3072,
// 256 banks, ECQF), divided by Q. Every per-queue header counts here
// — tail queues, kernel cursors, DRAM list records, MMA ledgers and
// indices — and the fixed-size parts (banks, pipeline ring, slab) are
// noise at this Q.
func TestEmptyEngineBytesPerQueue(t *testing.T) {
	const queues = 1 << 16
	before := liveHeap()
	buf, err := pktbuf.New(pktbuf.Config{Queues: queues, LineRate: pktbuf.OC3072, Granularity: 4, Banks: 256, MMA: pktbuf.ECQF})
	if err != nil {
		t.Fatal(err)
	}
	perQueue := (int64(liveHeap()) - int64(before)) / queues
	if perQueue > 200 {
		t.Errorf("empty buffer holds %d B per queue, want ≤ 200", perQueue)
	}
	t.Logf("empty buffer: %d B per queue at Q=%d", perQueue, queues)
	runtime.KeepAlive(buf)
}

// liveHeap returns the live heap after two collections (the first may
// only queue finalizers).
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
