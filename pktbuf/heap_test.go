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
// round-robin. Cells are written once into the DRAM's block slab and
// move between the tail SRAM, the DRAM and the head SRAM by handle, so
// the heap holds each resident cell once plus per-queue chain, ring and
// window headers.
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
	if grew > 400<<10 {
		t.Errorf("buffer holds %d KB of live heap after warm-up, want ≤ 400 KB", grew>>10)
	}
	t.Logf("buffer live heap after %d slots: %d KB", slots, grew>>10)
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
