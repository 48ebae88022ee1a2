package sim_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/facade"
	"repro/internal/testbuf"
	"repro/pktbuf"
	"repro/pktbuf/sim"
)

// These suites drive the Runner over this package's generators on
// exact core configurations, built through pktbuf.New by testbuf.New.

func testBuffer(t *testing.T, q int) *pktbuf.Buffer {
	t.Helper()
	return testbuf.New(t, core.Config{Q: q, B: 8, Bsmall: 2, Banks: 16})
}

func TestRunnerValidation(t *testing.T) {
	r := &sim.Runner{}
	if _, err := r.Run(10); err == nil {
		t.Error("empty runner ran")
	}
}

func TestRunnerAdversarialCleanQ4(t *testing.T) {
	b := testBuffer(t, 4)
	arr, _ := sim.NewRoundRobinArrivals(4, 1.0)
	req, _ := sim.NewRoundRobinDrain(4)
	delivered := 0
	r := &sim.Runner{Buffer: b, Arrivals: arr, Requests: req,
		OnDeliver: func(c pktbuf.Cell, _ bool) { delivered++ }}
	res, err := r.Run(20000)
	if err != nil {
		t.Fatalf("%v (stats %v)", err, res.Stats)
	}
	if !res.Clean() {
		t.Fatalf("not clean: %v", res.Stats)
	}
	if delivered == 0 || uint64(delivered) != res.Stats.Deliveries {
		t.Errorf("delivered %d, stats %d", delivered, res.Stats.Deliveries)
	}
	// Full-load arrivals with a lagging drain: deliveries should be
	// a substantial fraction of arrivals.
	if res.Stats.Deliveries < res.Stats.Arrivals/2 {
		t.Errorf("only %d of %d delivered", res.Stats.Deliveries, res.Stats.Arrivals)
	}
}

func TestRunnerAllWorkloadMatrixClean(t *testing.T) {
	// Cross product of arrival processes and request policies on the
	// small CFDS configuration: every combination must be invariant
	// clean.
	const Q = 4
	arrivals := map[string]func() sim.ArrivalProcess{
		"uniform": func() sim.ArrivalProcess { a, _ := sim.NewUniformArrivals(Q, 0.9, 11); return a },
		"rr":      func() sim.ArrivalProcess { a, _ := sim.NewRoundRobinArrivals(Q, 1.0); return a },
		"hotspot": func() sim.ArrivalProcess { a, _ := sim.NewHotspotArrivals(Q, 0.95, 0.8, 5); return a },
		"bursty":  func() sim.ArrivalProcess { a, _ := sim.NewBurstyArrivals(Q, 20, 4, 9); return a },
		"single":  func() sim.ArrivalProcess { return sim.NewSingleQueueArrivals(1) },
	}
	requests := map[string]func() sim.RequestPolicy{
		"rrdrain": func() sim.RequestPolicy { p, _ := sim.NewRoundRobinDrain(Q); return p },
		"uniform": func() sim.RequestPolicy { p, _ := sim.NewUniformRequests(Q, 0.95, 13); return p },
		"longest": func() sim.RequestPolicy { p, _ := sim.NewLongestFirst(Q); return p },
		"perm":    func() sim.RequestPolicy { p, _ := sim.NewPermutationDrain([]pktbuf.Queue{3, 1, 0, 2}); return p },
	}
	for an, af := range arrivals {
		for rn, rf := range requests {
			t.Run(an+"/"+rn, func(t *testing.T) {
				r := &sim.Runner{Buffer: testBuffer(t, Q), Arrivals: af(), Requests: rf()}
				res, err := r.Run(8000)
				if err != nil {
					t.Fatalf("%v (stats %v)", err, res.Stats)
				}
				if !res.Clean() {
					t.Fatalf("not clean: %v", res.Stats)
				}
			})
		}
	}
}

func TestRunnerDrain(t *testing.T) {
	b := testBuffer(t, 4)
	arr, _ := sim.NewRoundRobinArrivals(4, 1.0)
	req, _ := sim.NewRoundRobinDrain(4)
	r := &sim.Runner{Buffer: b, Arrivals: arr, Requests: sim.NewIdleRequests()}
	if _, err := r.Run(400); err != nil {
		t.Fatal(err)
	}
	r.Requests = req
	n, _, err := r.Drain(100000)
	if err != nil {
		t.Fatal(err)
	}
	if n != 400 {
		t.Errorf("drained %d, want 400", n)
	}
	for q := pktbuf.Queue(0); q < 4; q++ {
		if b.Len(q) != 0 {
			t.Errorf("Len(%d) = %d", q, b.Len(q))
		}
	}
}

func TestRunnerBoundedDRAMWithDropsAllowed(t *testing.T) {
	b := testbuf.New(t, core.Config{Q: 4, B: 8, Bsmall: 2, Banks: 16, BankCapacityBlocks: 2})
	r := &sim.Runner{
		Buffer:     b,
		Arrivals:   sim.NewSingleQueueArrivals(0),
		Requests:   sim.NewIdleRequests(),
		AllowDrops: true,
	}
	res, err := r.Run(4000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Drops == 0 {
		t.Error("expected drops under bounded DRAM flood")
	}
	if !res.Clean() {
		t.Errorf("drops-allowed run not clean: %v", res.Stats)
	}
}

func TestDrainTerminatesPromptly(t *testing.T) {
	// Regression: Drain's early exit used to run only on fully idle
	// slots, so a drain could burn all maxSlots after the buffer had
	// emptied. It must now stop as soon as no request is issued and
	// none is in flight.
	b := testBuffer(t, 4)
	req, _ := sim.NewRoundRobinDrain(4)

	// An empty buffer drains in one slot.
	r := &sim.Runner{Buffer: b, Arrivals: sim.NewSingleQueueArrivals(0), Requests: req}
	start := b.Now()
	n, _, err := r.Drain(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("drained %d cells from empty buffer", n)
	}
	if used := b.Now() - start; used > 1 {
		t.Errorf("empty drain used %d slots, want 1", used)
	}

	// A populated buffer drains in O(pipeline) slots, not maxSlots.
	r.Requests = sim.NewIdleRequests()
	if _, err := r.Run(100); err != nil {
		t.Fatal(err)
	}
	r.Requests = req
	start = b.Now()
	n, _, err = r.Drain(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Errorf("drained %d, want 100", n)
	}
	if used := b.Now() - start; used > 10000 {
		t.Errorf("drain used %d slots for 100 cells", used)
	}
}

// denseOnly hides a generator's batch and sparse fast paths, forcing
// the Runner onto the per-slot reference loop.
type denseOnly struct{ inner sim.ArrivalProcess }

func (d denseOnly) Next(slot uint64) pktbuf.Queue { return d.inner.Next(slot) }

// unstable hides a policy's IdleStable marker.
type unstable struct{ inner sim.RequestPolicy }

func (u unstable) Next(slot uint64, v sim.View) pktbuf.Queue { return u.inner.Next(slot, v) }

// deliveryLog records every delivery with its slot for sequence
// comparison between runs.
type deliveryLog struct {
	buf     *pktbuf.Buffer
	entries []string
}

func (l *deliveryLog) observe(c pktbuf.Cell, bypassed bool) {
	l.entries = append(l.entries,
		fmt.Sprintf("%d:%d:%d:%v", l.buf.Now(), c.Queue, c.Seq, bypassed))
}

// sparseCfg keeps the request pipeline short so idle gaps at the
// tested loads actually outlast it (a deliberately low-latency
// dimensioning; the invariant checks still run and must stay clean).
func sparseCfg(q int) core.Config {
	return core.Config{Q: q, B: 32, Bsmall: 4, Banks: 64, Lookahead: 8, LatencySlots: 24}
}

// TestRunBatchSparseEquivalence pins the Runner's fast-forward fast
// path to the per-slot reference loop: identical generators and seeds
// must produce identical deliveries (slot, queue, seq, bypass),
// identical statistics and an identical clock, across Bernoulli and
// bursty on/off traffic and ≥1e5 slots. The sparse run must actually
// skip slots, or the test guards nothing.
func TestRunBatchSparseEquivalence(t *testing.T) {
	const slots = 120000
	makers := map[string]func(q int, seed int64) (sim.ArrivalProcess, error){
		"bernoulli0.01": func(q int, seed int64) (sim.ArrivalProcess, error) {
			return sim.NewBernoulliArrivals(q, 0.01, seed)
		},
		"bernoulli0.2": func(q int, seed int64) (sim.ArrivalProcess, error) {
			return sim.NewBernoulliArrivals(q, 0.2, seed)
		},
		"bursty": func(q int, seed int64) (sim.ArrivalProcess, error) {
			return sim.NewBurstyArrivals(q, 16, 400, seed)
		},
	}
	for name, mk := range makers {
		for _, batch := range []uint64{0, 1, 777} {
			t.Run(fmt.Sprintf("%s/batch=%d", name, batch), func(t *testing.T) {
				run := func(dense bool) ([]string, *pktbuf.Buffer) {
					buf := testbuf.New(t, sparseCfg(16))
					arr, err := mk(16, 42)
					if err != nil {
						t.Fatal(err)
					}
					req, _ := sim.NewRoundRobinDrain(16)
					if dense {
						arr = denseOnly{arr}
						req = unstable{req}
					}
					log := &deliveryLog{buf: buf}
					r := &sim.Runner{Buffer: buf, Arrivals: arr, Requests: req, OnDeliver: log.observe}
					if _, err := r.RunBatch(slots, batch); err != nil {
						t.Fatalf("run (dense=%v): %v", dense, err)
					}
					return log.entries, buf
				}
				dlog, dbuf := run(true)
				slog, sbuf := run(false)
				if dbuf.Now() != sbuf.Now() {
					t.Errorf("clock diverges: dense %d, sparse %d", dbuf.Now(), sbuf.Now())
				}
				// Compare the engine's full statistics (stall, overflow
				// and scheduler counters included), not only the public
				// subset: fast-forward credits the skipped scheduler
				// cycles to EmptyCycles arithmetically.
				ds, ss := facade.CoreOf(dbuf).Stats(), facade.CoreOf(sbuf).Stats()
				if ss.FastForwardedSlots == 0 {
					t.Error("sparse run never fast-forwarded")
				}
				ss.FastForwardedSlots, ds.FastForwardedSlots = 0, 0
				if ds != ss {
					t.Errorf("stats diverge:\ndense  %+v\nsparse %+v", ds, ss)
				}
				if len(dlog) != len(slog) {
					t.Fatalf("delivery counts diverge: dense %d, sparse %d", len(dlog), len(slog))
				}
				for i := range dlog {
					if dlog[i] != slog[i] {
						t.Fatalf("delivery %d diverges: dense %s, sparse %s", i, dlog[i], slog[i])
					}
				}
			})
		}
	}
}

// TestRunBatchSparseZeroAlloc gates the sparse fast path at zero
// allocations per RunBatch call once warm.
func TestRunBatchSparseZeroAlloc(t *testing.T) {
	buf := testbuf.New(t, sparseCfg(16))
	arr, _ := sim.NewBernoulliArrivals(16, 0.05, 7)
	req, _ := sim.NewRoundRobinDrain(16)
	r := &sim.Runner{Buffer: buf, Arrivals: arr, Requests: req}
	if _, err := r.RunBatch(5000, 0); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := r.RunBatch(5000, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("sparse RunBatch allocates %.1f times per call, want 0", allocs)
	}
	if buf.Stats().FastForwardedSlots == 0 {
		t.Error("sparse run never fast-forwarded")
	}
}

// TestDrainQuiescence pins the rewritten Drain: an empty buffer
// drains in zero slots, a populated one stops at true quiescence (not
// at an arbitrary polling bound), and the returned last-delivery slot
// matches the final delivery observed by OnDeliver.
func TestDrainQuiescence(t *testing.T) {
	buf := testbuf.New(t, sparseCfg(8))
	req, _ := sim.NewRoundRobinDrain(8)
	r := &sim.Runner{Buffer: buf, Arrivals: sim.NewSingleQueueArrivals(0), Requests: req}

	// Empty buffer: O(1), zero slots spent, zero last-delivery slot.
	start := buf.Now()
	n, last, err := r.Drain(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 || last != 0 {
		t.Errorf("empty drain: delivered %d, lastSlot %d; want 0, 0", n, last)
	}
	if buf.Now() != start {
		t.Errorf("empty drain spent %d slots, want 0", buf.Now()-start)
	}

	// Fill, then drain: exact count, last slot cross-checked.
	r.Requests = sim.NewIdleRequests()
	if _, err := r.Run(100); err != nil {
		t.Fatal(err)
	}
	var observedLast uint64
	r.OnDeliver = func(pktbuf.Cell, bool) { observedLast = buf.Now() - 1 }
	r.Requests = req
	n, last, err = r.Drain(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Errorf("drained %d, want 100", n)
	}
	if last != observedLast {
		t.Errorf("lastSlot %d, observed %d", last, observedLast)
	}
	if !buf.Quiescent() {
		t.Error("buffer not quiescent after drain")
	}
	if buf.PendingRequests() != 0 {
		t.Error("requests still pending after drain")
	}
}

// TestWitnessUniformQ64b8HeadOverflow is ROADMAP item 1's witness:
// in-model uniform traffic at Q=64, b=8 (the workload of `pktbufsim
// -queues 64 -b 8 -arrivals uniform -requests uniform`, seed 1, with
// its default Q·b·4-slot warmup) overflowed the hand-padded head SRAM
// of 688 cells at slot 8 648. Sized by the ECQF ledger bound
// Q(b−1) + L + Λ = 448 + 449 + 152 = 1 049 cells, the same run is clean
// for 100 000 slots. Because the high-water depends on the exact RNG
// consumption of both uniform generators, it also pins their streams.
func TestWitnessUniformQ64b8HeadOverflow(t *testing.T) {
	buf, err := pktbuf.New(pktbuf.Config{Queues: 64, LineRate: pktbuf.OC3072, Granularity: 8, Banks: 256})
	if err != nil {
		t.Fatal(err)
	}
	arr, _ := sim.NewUniformArrivals(64, 1, 1)
	req, _ := sim.NewUniformRequests(64, 1, 2)
	warm := &sim.Runner{Buffer: buf, Arrivals: arr, Requests: sim.NewIdleRequests()}
	if _, err := warm.Run(64 * 8 * 4); err != nil {
		t.Fatal(err)
	}
	res, err := (&sim.Runner{Buffer: buf, Arrivals: arr, Requests: req}).Run(100000)
	if err != nil {
		t.Fatalf("after %d slots: %v", res.Slots, err)
	}
	if res.Slots != 100000 || !res.Stats.Clean() {
		t.Errorf("ran %d slots, stats %+v; want 100000 clean slots", res.Slots, res.Stats)
	}
	if hw, size := res.Stats.HeadSRAMHighWater, buf.Sizing().HeadSRAMCells; hw != 751 || size != 1049 {
		t.Errorf("head SRAM high-water %d, size %d; want 751 and 1049", hw, size)
	}
}
