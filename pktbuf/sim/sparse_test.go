package sim_test

import (
	"fmt"
	"testing"

	"repro/pktbuf"
	"repro/pktbuf/sim"
)

// sparseBuffer builds a short-pipeline buffer so idle gaps at low
// load actually outlast the request pipeline.
func sparseBuffer(t testing.TB, queues int) *pktbuf.Buffer {
	t.Helper()
	buf, err := pktbuf.New(pktbuf.Config{
		Queues: queues, LineRate: pktbuf.OC3072, Granularity: 4,
		Banks: 64, Lookahead: 8, LatencySlots: 24,
	})
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestPublicRunnerSparseEquivalence pins the public Runner's
// fast-forward path to its per-slot reference loop: identical
// Bernoulli workloads must yield identical deliveries, statistics and
// clocks, and the sparse run must actually skip slots.
func TestPublicRunnerSparseEquivalence(t *testing.T) {
	const slots = 60000
	run := func(dense bool) (sim.Result, []string, *pktbuf.Buffer) {
		buf := sparseBuffer(t, 16)
		arr, err := sim.NewBernoulliArrivals(16, 0.02, 11)
		if err != nil {
			t.Fatal(err)
		}
		req, err := sim.NewRoundRobinDrain(16)
		if err != nil {
			t.Fatal(err)
		}
		if dense {
			arr = denseOnly{arr}
			req = unstable{req}
		}
		var log []string
		r := &sim.Runner{Buffer: buf, Arrivals: arr, Requests: req,
			OnDeliver: func(c pktbuf.Cell, bypassed bool) {
				log = append(log, fmt.Sprintf("%d:%d:%d:%v", buf.Now()-1, c.Queue, c.Seq, bypassed))
			}}
		res, err := r.RunBatch(slots, 0)
		if err != nil {
			t.Fatalf("run (dense=%v): %v", dense, err)
		}
		return res, log, buf
	}
	dres, dlog, dbuf := run(true)
	sres, slog, sbuf := run(false)
	if dbuf.Now() != sbuf.Now() {
		t.Errorf("clock diverges: dense %d, sparse %d", dbuf.Now(), sbuf.Now())
	}
	ds, ss := dres.Stats, sres.Stats
	if ss.FastForwardedSlots == 0 {
		t.Error("sparse run never fast-forwarded")
	}
	ds.FastForwardedSlots, ss.FastForwardedSlots = 0, 0
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
}

// TestPublicFastForwardDirect exercises the façade's Quiescent and
// FastForward directly: a fresh buffer jumps, a busy one refuses, and
// the skipped slots are accounted in Stats.
func TestPublicFastForwardDirect(t *testing.T) {
	buf := sparseBuffer(t, 8)
	if !buf.Quiescent() {
		t.Fatal("fresh buffer must be quiescent")
	}
	if got := buf.FastForward(1000); got != 1000 {
		t.Fatalf("FastForward skipped %d, want 1000", got)
	}
	if buf.Now() != 1000 {
		t.Errorf("Now() = %d, want 1000", buf.Now())
	}
	if got := buf.Stats().FastForwardedSlots; got != 1000 {
		t.Errorf("FastForwardedSlots = %d, want 1000", got)
	}
	if _, err := buf.Tick(pktbuf.Input{Arrival: 3, Request: pktbuf.None}); err != nil {
		t.Fatal(err)
	}
	if _, err := buf.Tick(pktbuf.Input{Arrival: pktbuf.None, Request: 3}); err != nil {
		t.Fatal(err)
	}
	if buf.Quiescent() {
		t.Error("buffer with an in-flight request must not be quiescent")
	}
	if got := buf.FastForward(10); got != 0 {
		t.Errorf("busy FastForward skipped %d, want 0", got)
	}
}

// TestPublicDrainLastSlot pins the new Drain return: zero slots spent
// on an empty buffer, and the exact slot of the final delivery.
func TestPublicDrainLastSlot(t *testing.T) {
	buf := sparseBuffer(t, 4)
	req, _ := sim.NewRoundRobinDrain(4)
	r := &sim.Runner{Buffer: buf, Arrivals: sim.NewSingleQueueArrivals(0), Requests: req}

	start := buf.Now()
	n, last, err := r.Drain(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 || last != 0 || buf.Now() != start {
		t.Errorf("empty drain: delivered %d, lastSlot %d, spent %d slots; want 0, 0, 0",
			n, last, buf.Now()-start)
	}

	r.Requests = sim.NewIdleRequests()
	if _, err := r.Run(64); err != nil {
		t.Fatal(err)
	}
	var observed uint64
	r.OnDeliver = func(pktbuf.Cell, bool) { observed = buf.Now() - 1 }
	r.Requests = req
	n, last, err = r.Drain(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if n != 64 {
		t.Errorf("drained %d, want 64", n)
	}
	if last != observed {
		t.Errorf("lastSlot %d, observed %d", last, observed)
	}
	if !buf.Quiescent() {
		t.Error("buffer not quiescent after drain")
	}
}
