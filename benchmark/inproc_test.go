package main

import (
	"strings"
	"testing"
	"time"

	"repro/pktbuf"
)

// miniature runs a shrunken workload through setup, one traced and one
// untraced measure, and finish, and checks the shape of what comes
// back.
func miniature(t *testing.T, w workload, wantLayer ...string) *outcome {
	t.Helper()
	if err := w.setup(); err != nil {
		t.Fatalf("setup: %v", err)
	}
	tr := newTracer()
	if err := w.measure(time.Millisecond, nil); err != nil {
		t.Fatalf("measure: %v", err)
	}
	if err := w.measure(time.Millisecond, tr); err != nil {
		t.Fatalf("traced measure: %v", err)
	}
	if err := w.finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}
	o := w.outcome()
	if len(o.windows) < 2 || !o.windows[len(o.windows)-1].traced || o.windows[0].traced {
		t.Fatalf("windows: %+v", o.windows)
	}
	for _, win := range o.windows {
		if win.cells == 0 || win.slots == 0 || win.wallNS <= 0 || win.lat.n == 0 {
			t.Errorf("empty window: %+v", win)
		}
	}
	if o.attempted == 0 || o.failed != 0 || len(o.counters) == 0 || o.memMB <= 0 {
		t.Errorf("attempted=%d failed=%d counters=%v memMB=%v", o.attempted, o.failed, o.counters, o.memMB)
	}
	for _, k := range wantLayer {
		if _, ok := o.layer[k]; !ok {
			t.Errorf("layer metric %s missing", k)
		}
	}
	if tr.count() == 0 {
		t.Error("traced measure recorded no spans")
	}
	e2e := endToEnd(o.windows, o.memMB)
	for _, d := range endToEndMetrics {
		if d.name != mSetupS && e2e[d.name] <= 0 {
			t.Errorf("%s = %v, want > 0", d.name, e2e[d.name])
		}
	}
	return o
}

func TestBufferDenseMiniature(t *testing.T) {
	w := newDenseWorkload(1)
	w.windowCalls, w.warmPasses = 64, denseFill+64
	o := miniature(t, w, mPktbufSlotsPerS, mPktbufFFShare, mPktbufTailHeadroom, mPktbufAllocsPerKSlot)
	if o.counters["deliveries"] == 0 || o.counters["fast_forwarded"] != 0 {
		t.Errorf("dense counters: %v", o.counters)
	}
}

func TestBufferSparseMiniature(t *testing.T) {
	w := newSparseWorkload(1)
	w.windowCalls, w.warmPasses = sparseSlots/sparseBatch, 2
	o := miniature(t, w, mPktbufSlotsPerS, mPktbufFFShare)
	if share := o.layer[mPktbufFFShare]; share < 0.5 {
		t.Errorf("sparse run fast-forwarded only %v of its slots", share)
	}
}

func TestRouterMiniatures(t *testing.T) {
	var counters [2]map[string]uint64
	for i, serial := range []bool{true, false} {
		w := newRouterWorkload(1, serial)
		w.cycle, w.warmCycles = 8192, 1 // 32 calls per window
		o := miniature(t, w, mRouterSlotsPerS, mRouterCellsPerSlot, mRouterMatchShare, mPktbufHeadHeadroom)
		counters[i] = o.counters
	}
	// finish already compared the default engine to a serial replay;
	// the two workloads' fixed points must agree too.
	if formatCounters(counters[0]) != formatCounters(counters[1]) {
		t.Errorf("serial %v\ndefault %v", counters[0], counters[1])
	}
}

// The counters at the fixed point repeat exactly for a seed.
func TestCountersRepeat(t *testing.T) {
	run := func() string {
		w := newSparseWorkload(3)
		w.windowCalls, w.warmPasses = sparseSlots/sparseBatch, 2
		if err := w.setup(); err != nil {
			t.Fatal(err)
		}
		if err := w.measure(time.Millisecond, nil); err != nil {
			t.Fatal(err)
		}
		return formatCounters(w.outcome().counters)
	}
	if a, b := run(), run(); a != b {
		t.Errorf("two runs of one seed:\n%s\n%s", a, b)
	}
}

// The output checks fire: each violated guarantee is named.
func TestCheckBufferFires(t *testing.T) {
	sz := pktbuf.Sizing{TailSRAMCells: 10, HeadSRAMCells: 10, RequestRegister: 4}
	ok := pktbuf.Stats{Deliveries: 1, TailSRAMHighWater: 10, HeadSRAMHighWater: 10, MaxRequestRegisterOccupancy: 4}
	if err := checkBuffer("b", ok, sz); err != nil {
		t.Errorf("clean stats at the bounds rejected: %v", err)
	}
	for want, mutate := range map[string]func(*pktbuf.Stats){
		"not clean":         func(s *pktbuf.Stats) { s.Misses = 1 },
		"nothing delivered": func(s *pktbuf.Stats) { s.Deliveries = 0 },
		"tail SRAM":         func(s *pktbuf.Stats) { s.TailSRAMHighWater = 11 },
		"head SRAM":         func(s *pktbuf.Stats) { s.HeadSRAMHighWater = 11 },
		"requests register": func(s *pktbuf.Stats) { s.MaxRequestRegisterOccupancy = 5 },
	} {
		st := ok
		mutate(&st)
		if err := checkBuffer("b", st, sz); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("want an error naming %q, got %v", want, err)
		}
	}
}

// A broken delivery order is caught while the workload runs.
func TestBufferSequenceCheckFires(t *testing.T) {
	w := newDenseWorkload(1)
	w.warmPasses = denseFill
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	w.expect[0]++ // pretend queue 0's first cell was already seen
	var err error
	for i := 0; i < 64 && err == nil; i++ {
		err = w.tick(w.steady, true)
	}
	if err == nil || !strings.Contains(err.Error(), "delivered seq") {
		t.Errorf("out-of-sequence delivery not reported: %v", err)
	}
}
