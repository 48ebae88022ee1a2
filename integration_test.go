package repro

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/facade"
	"repro/internal/testbuf"
	"repro/pktbuf"
	"repro/pktbuf/sim"
)

// TestMetamorphicRADSvsCFDS: the DRAM reorganization is supposed to be
// invisible to the outside world. Feed the exact same arrival/request
// trace to a RADS buffer and to CFDS buffers at several granularities:
// the delivered cell streams must be identical (the delivery *timing*
// shifts by each configuration's fixed pipeline, but order and content
// may not change).
func TestMetamorphicRADSvsCFDS(t *testing.T) {
	const (
		queues = 8
		slots  = 20000
	)
	type event struct {
		arrival, request cell.QueueID
	}

	for seed := int64(1); seed <= 5; seed++ {
		// Pre-generate a trace that is valid for any buffer: track a
		// reference occupancy so requests never exceed arrivals. All
		// buffers see the same trace because their externally visible
		// acceptance behaviour is identical (unbounded DRAM).
		rng := rand.New(rand.NewSource(seed))
		trace := make([]event, slots)
		occ := make([]int, queues)
		pending := 0
		for i := range trace {
			e := event{arrival: cell.NoQueue, request: cell.NoQueue}
			if rng.Intn(10) < 8 {
				q := rng.Intn(queues)
				e.arrival = cell.QueueID(q)
				occ[q]++
			}
			if rng.Intn(10) < 7 {
				// Random requestable queue under the reference model.
				start := rng.Intn(queues)
				for k := 0; k < queues; k++ {
					q := (start + k) % queues
					if occ[q] > 0 {
						e.request = cell.QueueID(q)
						occ[q]--
						pending++
						break
					}
				}
			}
			trace[i] = e
		}

		run := func(bsmall int) []cell.Cell {
			buf, err := core.New(core.Config{Q: queues, B: 8, Bsmall: bsmall, Banks: 16})
			if err != nil {
				t.Fatal(err)
			}
			var delivered []cell.Cell
			for i, e := range trace {
				out, err := buf.Tick(core.TickInput{Arrival: e.arrival, Request: e.request})
				if err != nil {
					t.Fatalf("seed %d b=%d slot %d: %v", seed, bsmall, i, err)
				}
				if out.Delivered != nil {
					delivered = append(delivered, *out.Delivered)
				}
			}
			// Flush the pipeline: idle ticks until everything requested
			// has been delivered.
			for i := 0; i < 100000 && len(delivered) < pending; i++ {
				out, err := buf.Tick(core.TickInput{Arrival: cell.NoQueue, Request: cell.NoQueue})
				if err != nil {
					t.Fatalf("seed %d b=%d flush: %v", seed, bsmall, err)
				}
				if out.Delivered != nil {
					delivered = append(delivered, *out.Delivered)
				}
			}
			return delivered
		}

		reference := run(8) // RADS
		for _, b := range []int{4, 2, 1} {
			got := run(b)
			if len(got) != len(reference) {
				t.Fatalf("seed %d b=%d: delivered %d cells, RADS delivered %d",
					seed, b, len(got), len(reference))
			}
			for i := range got {
				if got[i] != reference[i] {
					t.Fatalf("seed %d b=%d: delivery %d = %v, RADS %v",
						seed, b, i, got[i], reference[i])
				}
			}
		}
		if len(reference) != pending {
			t.Fatalf("seed %d: delivered %d of %d requested", seed, len(reference), pending)
		}
	}
}

// TestPaperScaleConfiguration runs the Figure 10 design point (Q=512,
// B=32, b=4, M=256) long enough to cycle the whole pipeline several
// times.
func TestPaperScaleConfiguration(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale run skipped in -short mode")
	}
	buf := testbuf.New(t, core.Config{Q: 512, B: 32, Bsmall: 4, Banks: 256})
	inner := facade.CoreOf(buf)
	arr, _ := sim.NewRoundRobinArrivals(512, 1.0)
	req, _ := sim.NewRoundRobinDrain(512)
	warm := &sim.Runner{Buffer: buf, Arrivals: arr, Requests: sim.NewIdleRequests()}
	if _, err := warm.Run(512 * 32); err != nil {
		t.Fatal(err)
	}
	r := &sim.Runner{Buffer: buf, Arrivals: arr, Requests: req}
	res, err := r.Run(60000)
	if err != nil {
		t.Fatalf("%v (stats %v)", err, res.Stats)
	}
	if !res.Clean() {
		t.Fatalf("not clean: %v", res.Stats)
	}
	cfg, st := inner.Config(), inner.Stats()
	if st.HeadHighWater > cfg.HeadSRAMCells {
		t.Errorf("head high-water %d exceeds capacity %d", st.HeadHighWater, cfg.HeadSRAMCells)
	}
	d := cfg.Dimension()
	if st.DSS.MaxSkips > cfg.IssuesPerCycle*d.MaxSkips() {
		t.Errorf("skips %d exceed bound %d", st.DSS.MaxSkips, cfg.IssuesPerCycle*d.MaxSkips())
	}
}

// TestQuickRandomConfigurations property-checks New+Tick across random
// small geometries: any configuration the validator accepts must run
// the adversary cleanly.
func TestQuickRandomConfigurations(t *testing.T) {
	f := func(qRaw, bExp, mExp uint8, seed int64) bool {
		queues := int(qRaw)%12 + 1
		bigB := 8
		b := 1 << (int(bExp) % 4) // 1,2,4,8
		banks := (bigB / b) << (int(mExp) % 3)
		cfg := core.Config{Q: queues, B: bigB, Bsmall: b, Banks: banks}
		buf, err := core.New(cfg)
		if err != nil {
			// Geometry rejected by validation — fine, skip.
			return true
		}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 3000; i++ {
			in := core.TickInput{Arrival: cell.NoQueue, Request: cell.NoQueue}
			if rng.Intn(10) < 8 {
				in.Arrival = cell.QueueID(rng.Intn(queues))
			}
			q := cell.QueueID(rng.Intn(queues))
			if buf.Requestable(q) > 0 && rng.Intn(10) < 8 {
				in.Request = q
			}
			if _, err := buf.Tick(in); err != nil {
				t.Logf("cfg %+v: %v", cfg, err)
				return false
			}
		}
		return buf.Stats().Clean()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestCellConservationEndToEnd runs a long mixed workload and then
// drains completely: arrivals must equal deliveries exactly.
func TestCellConservationEndToEnd(t *testing.T) {
	buf := testbuf.New(t, core.Config{Q: 16, B: 8, Bsmall: 2, Banks: 32})
	arr, _ := sim.NewBurstyArrivals(16, 24, 8, 21)
	req, _ := sim.NewUniformRequests(16, 0.6, 22)
	r := &sim.Runner{Buffer: buf, Arrivals: arr, Requests: req}
	if _, err := r.Run(40000); err != nil {
		t.Fatal(err)
	}
	drain, _ := sim.NewRoundRobinDrain(16)
	r.Requests = drain
	if _, _, err := r.Drain(400000); err != nil {
		t.Fatal(err)
	}
	st := buf.Stats()
	if st.Arrivals != st.Deliveries {
		t.Fatalf("arrivals %d != deliveries %d", st.Arrivals, st.Deliveries)
	}
	for q := pktbuf.Queue(0); q < 16; q++ {
		if buf.Len(q) != 0 {
			t.Errorf("Len(%d) = %d after drain", q, buf.Len(q))
		}
	}
}
