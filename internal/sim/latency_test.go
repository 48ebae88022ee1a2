package sim_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/facade"
	"repro/internal/testbuf"
	"repro/pktbuf"
	"repro/pktbuf/sim"
)

func TestLatencyTrackerBasics(t *testing.T) {
	tr := sim.NewLatencyTracker()
	tr.OnArrival(3, 10)
	tr.OnArrival(3, 12)
	tr.OnArrival(5, 11)
	if got := tr.InFlight(); got != 3 {
		t.Errorf("InFlight = %d", got)
	}
	tr.OnDeliver(pktbuf.Cell{Queue: 3, Seq: 0}, 30) // 20 slots
	tr.OnDeliver(pktbuf.Cell{Queue: 3, Seq: 1}, 52) // 40 slots
	tr.OnDeliver(pktbuf.Cell{Queue: 5, Seq: 0}, 41) // 30 slots
	// Unknown cell ignored.
	tr.OnDeliver(pktbuf.Cell{Queue: 9, Seq: 7}, 99)
	s := tr.Stats()
	if s.Count != 3 || s.Min != 20 || s.Max != 40 || s.Mean != 30 || s.P50 != 30 {
		t.Errorf("stats = %+v", s)
	}
	if !strings.Contains(s.String(), "p99") {
		t.Error("String() malformed")
	}
	if tr.InFlight() != 0 {
		t.Errorf("InFlight = %d after deliveries", tr.InFlight())
	}
}

func TestLatencyStatsEmpty(t *testing.T) {
	if got := sim.NewLatencyTracker().Stats(); got.Count != 0 {
		t.Errorf("empty stats = %+v", got)
	}
}

func TestRunWithLatencyPipelineFloor(t *testing.T) {
	// Every delivery takes at least the request pipeline; under a
	// steady drain the sojourn must be ≥ pipeline length and finite.
	b := testbuf.New(t, core.Config{Q: 4, B: 8, Bsmall: 2, Banks: 16})
	built := facade.CoreOf(b).Config()
	pipe := uint64(built.Lookahead + built.LatencySlots)
	arr, _ := sim.NewRoundRobinArrivals(4, 1.0)
	req, _ := sim.NewRoundRobinDrain(4)
	r := &sim.Runner{Buffer: b, Arrivals: arr, Requests: req}
	res, lat, err := r.RunWithLatency(20000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean() {
		t.Fatalf("not clean: %v", res.Stats)
	}
	if lat.Count == 0 {
		t.Fatal("no latency samples")
	}
	if lat.Min < pipe {
		t.Errorf("min latency %d below pipeline %d", lat.Min, pipe)
	}
	if lat.Mean < float64(lat.Min) || float64(lat.Max) < lat.Mean {
		t.Errorf("inconsistent stats: %v", lat)
	}
	// The runner's hooks must be restored.
	if r.OnDeliver != nil {
		t.Error("OnDeliver not restored")
	}
}

func TestRunWithLatencyLookaheadTradeoff(t *testing.T) {
	// [13]'s motivation for short lookaheads: a smaller lookahead gives
	// a smaller delivery delay (at the cost of SRAM). Verify the mean
	// sojourn drops when the lookahead shrinks.
	run := func(lookahead int) float64 {
		b := testbuf.New(t, core.Config{Q: 4, B: 8, Bsmall: 2, Banks: 16, Lookahead: lookahead})
		arr, _ := sim.NewRoundRobinArrivals(4, 1.0)
		req, _ := sim.NewRoundRobinDrain(4)
		r := &sim.Runner{Buffer: b, Arrivals: arr, Requests: req}
		_, lat, err := r.RunWithLatency(15000)
		if err != nil {
			t.Fatal(err)
		}
		return lat.Mean
	}
	long := run(0) // default = full lookahead
	short := run(2)
	if short >= long {
		t.Errorf("short-lookahead latency %.1f not below full-lookahead %.1f", short, long)
	}
}

func TestRunWithLatencyRejectsAllowDrops(t *testing.T) {
	b := testbuf.New(t, core.Config{Q: 4, B: 8, Bsmall: 2, Banks: 16})
	arr, _ := sim.NewRoundRobinArrivals(4, 1.0)
	r := &sim.Runner{Buffer: b, Arrivals: arr, Requests: sim.NewIdleRequests(), AllowDrops: true}
	if _, _, err := r.RunWithLatency(10); err == nil {
		t.Error("AllowDrops accepted")
	}
}
