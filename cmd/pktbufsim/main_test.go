package main

import (
	"fmt"
	"testing"

	"repro/pktbuf"
	"repro/pktbuf/sim"
)

// TestSparseLineCountsMeasuredSlots: the sparse: line reports the
// fast-forwarded share of the measured run alone. The short-pipeline
// Bernoulli shape fast-forwards most of its arrival-only warm-up, which
// is longer than the measured run, so counting the warm-up's
// fast-forwards would report more than 100 %.
func TestSparseLineCountsMeasuredSlots(t *testing.T) {
	buf, err := pktbuf.New(pktbuf.Config{Queues: 64, LineRate: pktbuf.OC3072, Banks: 256, Lookahead: 2, LatencySlots: 2})
	if err != nil {
		t.Fatal(err)
	}
	arr, _ := sim.NewBernoulliArrivals(64, 0.02, 1)
	req, _ := sim.NewRoundRobinDrain(64)
	if _, err := (&sim.Runner{Buffer: buf, Arrivals: arr, Requests: sim.NewIdleRequests()}).RunBatch(64*32*4, 0); err != nil {
		t.Fatal(err)
	}
	before := buf.Stats()
	res, err := (&sim.Runner{Buffer: buf, Arrivals: arr, Requests: req}).RunBatch(4000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if before.FastForwardedSlots <= res.Slots {
		t.Fatalf("warm-up fast-forwarded %d slots; the check needs more than the %d measured", before.FastForwardedSlots, res.Slots)
	}
	ff := res.Stats.FastForwardedSlots - before.FastForwardedSlots
	want := fmt.Sprintf("sparse: %d/%d slots fast-forwarded (%.1f%%)", ff, res.Slots, 100*float64(ff)/float64(res.Slots))
	if got := sparseLine(res, before); got != want || ff > res.Slots {
		t.Errorf("sparseLine = %q, want %q (at most 100 %%)", got, want)
	}
}
