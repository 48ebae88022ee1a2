package pktbuf_test

import (
	"testing"

	"repro/pktbuf"
)

func TestStatsSub(t *testing.T) {
	prev := pktbuf.Stats{
		Arrivals: 100, Requests: 90, Deliveries: 80, Bypasses: 40,
		Misses: 1, Drops: 2, BadRequests: 3, HeadOverflows: 4,
		TailSRAMHighWater: 7, HeadSRAMHighWater: 5,
		MaxRequestRegisterOccupancy: 4, MaxRequestSkips: 2,
		FastForwardedSlots: 1000,
	}
	cur := pktbuf.Stats{
		Arrivals: 150, Requests: 140, Deliveries: 130, Bypasses: 60,
		Misses: 1, Drops: 5, BadRequests: 4, HeadOverflows: 12,
		TailSRAMHighWater: 9, HeadSRAMHighWater: 5,
		MaxRequestRegisterOccupancy: 6, MaxRequestSkips: 2,
		FastForwardedSlots: 1200,
	}
	want := pktbuf.Stats{
		Arrivals: 50, Requests: 50, Deliveries: 50, Bypasses: 20,
		Misses: 0, Drops: 3, BadRequests: 1, HeadOverflows: 8,
		// Peaks are run-wide properties: Sub keeps the current values.
		TailSRAMHighWater: 9, HeadSRAMHighWater: 5,
		MaxRequestRegisterOccupancy: 6, MaxRequestSkips: 2,
		FastForwardedSlots: 200,
	}
	if got := cur.Sub(prev); got != want {
		t.Fatalf("cur.Sub(prev) = %+v, want %+v", got, want)
	}
	// Sub against a zero snapshot is the identity.
	if got := cur.Sub(pktbuf.Stats{}); got != cur {
		t.Fatalf("cur.Sub(zero) = %+v, want %+v", got, cur)
	}
}

// TestStatsSubLive exercises Sub on real engine snapshots: interval
// deltas must add back up to the final cumulative counters.
func TestStatsSubLive(t *testing.T) {
	buf, err := pktbuf.New(pktbuf.Config{
		Queues: 4, LineRate: pktbuf.OC768, Granularity: 2, Banks: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	feed := func(n int) {
		for i := 0; i < n; i++ {
			in := pktbuf.Input{Arrival: pktbuf.Queue(i % 4), Request: pktbuf.None}
			if _, err := buf.Tick(in); err != nil {
				t.Fatal(err)
			}
		}
	}
	feed(32)
	mid := buf.Stats()
	feed(16)
	delta := buf.Stats().Sub(mid)
	if delta.Arrivals != 16 {
		t.Fatalf("interval delta arrivals = %d, want 16", delta.Arrivals)
	}
	if total := mid.Sub(pktbuf.Stats{}).Arrivals + delta.Arrivals; total != buf.Stats().Arrivals {
		t.Fatalf("deltas sum to %d arrivals, cumulative says %d", total, buf.Stats().Arrivals)
	}
}
