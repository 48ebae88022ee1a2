package repro

import (
	"testing"

	"repro/internal/core"
	"repro/internal/facade"
	"repro/internal/testbuf"
	"repro/pktbuf"
	"repro/pktbuf/sim"
)

// TestHighWaterBounds drives the buffer through the §3 adversarial
// round-robin pattern across the CFDS granularity sweep and asserts
// that the observed high-water marks respect the dimensioned bounds:
// the tail/head SRAM occupancy maxima never exceed the configured
// capacities (equation (4) and the §3 tail bound plus engineering
// slack), and the Requests Register occupancy never exceeds the
// equation (1) capacity. b = 32 is the RADS degenerate case b = B.
func TestHighWaterBounds(t *testing.T) {
	const (
		queues = 16
		slots  = 100000
	)
	for _, bsmall := range []int{1, 2, 4, 32} {
		buf := testbuf.New(t, core.Config{Q: queues, B: 32, Bsmall: bsmall, Banks: 256})
		inner := facade.CoreOf(buf)
		final := inner.Config()
		arr, _ := sim.NewRoundRobinArrivals(queues, 1.0)
		req, _ := sim.NewRoundRobinDrain(queues)
		warm := &sim.Runner{Buffer: buf, Arrivals: arr, Requests: sim.NewIdleRequests()}
		if _, err := warm.Run(uint64(queues * final.B * 4)); err != nil {
			t.Fatalf("b=%d warmup: %v", bsmall, err)
		}
		r := &sim.Runner{Buffer: buf, Arrivals: arr, Requests: req}
		res, err := r.RunBatch(slots, 0)
		if err != nil {
			t.Fatalf("b=%d: %v (stats %v)", bsmall, err, res.Stats)
		}
		s := inner.Stats()
		if !s.Clean() {
			t.Errorf("b=%d: run not clean: %v", bsmall, s)
		}
		if s.TailHighWater <= 0 || s.TailHighWater > final.TailSRAMCells {
			t.Errorf("b=%d: tail SRAM high water %d outside (0, %d]",
				bsmall, s.TailHighWater, final.TailSRAMCells)
		}
		if s.HeadHighWater < 0 || s.HeadHighWater > final.HeadSRAMCells {
			t.Errorf("b=%d: head SRAM high water %d outside [0, %d]",
				bsmall, s.HeadHighWater, final.HeadSRAMCells)
		}
		if s.DSS.MaxOccupancy < 0 || s.DSS.MaxOccupancy > final.RRCapacity {
			t.Errorf("b=%d: RR occupancy high water %d outside [0, %d]",
				bsmall, s.DSS.MaxOccupancy, final.RRCapacity)
		}
		if bsmall > 1 && bsmall < final.B && s.HeadHighWater == 0 {
			t.Errorf("b=%d: head SRAM never used — DRAM path untested", bsmall)
		}
	}
}

// TestRandomizedFIFOEquivalence is the seeded end-to-end equivalence
// check for the dense-arena datapath: a random workload over 10⁵ slots
// must deliver every queue's cells in strictly increasing sequence
// order (per-queue FIFO, the buffer's externally observable contract)
// and finish Clean.
func TestRandomizedFIFOEquivalence(t *testing.T) {
	const (
		queues = 32
		slots  = 100000
		seed   = 42
	)
	buf := testbuf.New(t, core.Config{Q: queues, B: 32, Bsmall: 4, Banks: 256})
	arr, err := sim.NewUniformArrivals(queues, 0.9, seed)
	if err != nil {
		t.Fatal(err)
	}
	req, err := sim.NewUniformRequests(queues, 0.8, seed+1)
	if err != nil {
		t.Fatal(err)
	}
	next := make([]uint64, queues)
	deliveries := 0
	r := &sim.Runner{
		Buffer:   buf,
		Arrivals: arr,
		Requests: req,
		OnDeliver: func(c pktbuf.Cell, _ bool) {
			if c.Seq != next[c.Queue] {
				t.Fatalf("queue %d delivered seq %d, want %d", c.Queue, c.Seq, next[c.Queue])
			}
			next[c.Queue]++
			deliveries++
		},
	}
	res, err := r.RunBatch(slots, 0)
	if err != nil {
		t.Fatalf("%v (stats %v)", err, res.Stats)
	}
	if !res.Stats.Clean() {
		t.Errorf("run not clean: %v", res.Stats)
	}
	if deliveries == 0 {
		t.Fatal("no deliveries observed")
	}
	if uint64(deliveries) != res.Stats.Deliveries {
		t.Errorf("OnDeliver saw %d cells, stats say %d", deliveries, res.Stats.Deliveries)
	}
	// Drain what remains and re-verify the FIFO order end to end.
	drainReq, _ := sim.NewRoundRobinDrain(queues)
	r.Requests = drainReq
	if _, _, err := r.Drain(10 * slots); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for q := 0; q < queues; q++ {
		if got := buf.Len(pktbuf.Queue(q)); got != 0 {
			t.Errorf("queue %d still holds %d cells after drain", q, got)
		}
	}
}

// TestRunBatchMatchesRun pins the batched driver to the per-slot
// driver: identical workloads must produce identical statistics.
func TestRunBatchMatchesRun(t *testing.T) {
	run := func(batch uint64) core.Stats {
		t.Helper()
		buf := testbuf.New(t, core.Config{Q: 8, B: 8, Bsmall: 2, Banks: 64})
		inner := facade.CoreOf(buf)
		arr, _ := sim.NewRoundRobinArrivals(8, 0.7)
		req, _ := sim.NewRoundRobinDrain(8)
		r := &sim.Runner{Buffer: buf, Arrivals: arr, Requests: req}
		if _, err := r.RunBatch(20000, batch); err != nil {
			t.Fatalf("batch=%d: %v", batch, err)
		}
		return inner.Stats()
	}
	perSlot := run(1)
	for _, batch := range []uint64{0, 7, 4096} {
		if got := run(batch); got != perSlot {
			t.Errorf("batch=%d stats diverge:\n got %v\nwant %v", batch, got, perSlot)
		}
	}
}
