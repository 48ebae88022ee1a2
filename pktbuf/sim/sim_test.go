package sim_test

import (
	"errors"
	"testing"

	"repro/pktbuf"
	"repro/pktbuf/sim"
)

func newBuffer(t testing.TB, queues int) *pktbuf.Buffer {
	t.Helper()
	buf, err := pktbuf.New(pktbuf.Config{
		Queues: queues, LineRate: pktbuf.OC768, Granularity: 2, Banks: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

func TestRunnerAdversarialClean(t *testing.T) {
	const queues = 8
	buf := newBuffer(t, queues)
	arr, err := sim.NewRoundRobinArrivals(queues, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	req, err := sim.NewRoundRobinDrain(queues)
	if err != nil {
		t.Fatal(err)
	}
	warm := &sim.Runner{Buffer: buf, Arrivals: arr, Requests: sim.NewIdleRequests()}
	if _, err := warm.Run(512); err != nil {
		t.Fatal(err)
	}
	run := &sim.Runner{Buffer: buf, Arrivals: arr, Requests: req}
	res, err := run.Run(20000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean() {
		t.Errorf("adversarial run not clean: %+v", res.Stats)
	}
	if res.Stats.Deliveries == 0 || res.Slots != 20000 {
		t.Errorf("result = %+v", res)
	}
}

// TestRunBatchMatchesRun drives two identical buffers with identical
// deterministic workloads through the per-slot and the batched path
// and requires identical statistics.
func TestRunBatchMatchesRun(t *testing.T) {
	const queues, slots = 8, 30000
	results := make([]sim.Result, 2)
	for i, batch := range []uint64{1, 256} {
		buf := newBuffer(t, queues)
		arr, _ := sim.NewUniformArrivals(queues, 0.8, 42)
		req, _ := sim.NewRoundRobinDrain(queues)
		r := &sim.Runner{Buffer: buf, Arrivals: arr, Requests: req}
		res, err := r.RunBatch(slots, batch)
		if err != nil {
			t.Fatalf("batch=%d: %v", batch, err)
		}
		results[i] = res
	}
	if results[0] != results[1] {
		t.Errorf("per-slot and batched runs diverge:\n%+v\n%+v", results[0], results[1])
	}
}

func TestDrainEmptiesBuffer(t *testing.T) {
	const queues = 4
	buf := newBuffer(t, queues)
	arr, _ := sim.NewRoundRobinArrivals(queues, 1.0)
	req, _ := sim.NewRoundRobinDrain(queues)
	fill := &sim.Runner{Buffer: buf, Arrivals: arr, Requests: sim.NewIdleRequests()}
	if _, err := fill.Run(256); err != nil {
		t.Fatal(err)
	}
	drain := &sim.Runner{Buffer: buf, Arrivals: arr, Requests: req}
	delivered, _, err := drain.Drain(100000)
	if err != nil {
		t.Fatal(err)
	}
	if delivered != 256 {
		t.Errorf("drained %d cells, want 256", delivered)
	}
	for q := pktbuf.Queue(0); int(q) < queues; q++ {
		if n := buf.Len(q); n != 0 {
			t.Errorf("queue %d still holds %d cells after drain", q, n)
		}
	}
	if buf.PendingRequests() != 0 {
		t.Error("requests still pending after drain")
	}
}

// TestOnDeliverFIFO checks per-queue FIFO delivery through the
// callback, and that delivered cells are safe to retain (value
// semantics).
func TestOnDeliverFIFO(t *testing.T) {
	const queues = 4
	buf := newBuffer(t, queues)
	arr, _ := sim.NewUniformArrivals(queues, 0.7, 7)
	req, _ := sim.NewLongestFirst(queues)
	next := make([]uint64, queues)
	r := &sim.Runner{
		Buffer: buf, Arrivals: arr, Requests: req,
		OnDeliver: func(c pktbuf.Cell, bypassed bool) {
			if c.Seq != next[c.Queue] {
				t.Fatalf("queue %d delivered seq %d, want %d", c.Queue, c.Seq, next[c.Queue])
			}
			next[c.Queue]++
		},
	}
	res, err := r.Run(20000)
	if err != nil {
		t.Fatal(err)
	}
	var total uint64
	for _, n := range next {
		total += n
	}
	if total != res.Stats.Deliveries || total == 0 {
		t.Errorf("callback saw %d deliveries, stats say %d", total, res.Stats.Deliveries)
	}
}

func TestRunWithLatency(t *testing.T) {
	const queues = 4
	buf := newBuffer(t, queues)
	arr, _ := sim.NewUniformArrivals(queues, 0.5, 3)
	req, _ := sim.NewRoundRobinDrain(queues)
	r := &sim.Runner{Buffer: buf, Arrivals: arr, Requests: req}
	res, lat, err := r.RunWithLatency(20000)
	if err != nil {
		t.Fatal(err)
	}
	if lat.Count == 0 || lat.Count != res.Stats.Deliveries {
		t.Errorf("latency count %d, deliveries %d", lat.Count, res.Stats.Deliveries)
	}
	if lat.Min > lat.P50 || lat.P50 > lat.P99 || lat.P99 > lat.Max {
		t.Errorf("percentiles out of order: %v", lat)
	}
	// Sojourns are arrival-slot → delivery-slot; a same-slot bypass
	// cut-through (Min == 0) is legal, but the bulk of the traffic
	// rides the request pipeline, so the median cannot beat it.
	if lat.P50 == 0 {
		t.Errorf("median sojourn 0 slots: %v", lat)
	}
}

// TestRunWithLatencySeesBacklog attaches the latency measurement to a
// buffer with a standing backlog: measured cells queue behind it, so
// their sojourn must exceed the fixed request pipeline. (A tracker
// that keys arrivals from seq 0 instead of the buffer's numbering
// pairs them with the backlog's deliveries and reports exactly the
// pipeline floor, silently cancelling the queueing delay.)
func TestRunWithLatencySeesBacklog(t *testing.T) {
	const queues = 8
	buf := newBuffer(t, queues)
	arr, _ := sim.NewRoundRobinArrivals(queues, 1.0)
	req, _ := sim.NewRoundRobinDrain(queues)
	warm := &sim.Runner{Buffer: buf, Arrivals: arr, Requests: sim.NewIdleRequests()}
	if _, err := warm.Run(1024); err != nil { // 128-cell backlog per queue
		t.Fatal(err)
	}
	r := &sim.Runner{Buffer: buf, Arrivals: arr, Requests: req}
	res, lat, err := r.RunWithLatency(20000)
	if err != nil {
		t.Fatal(err)
	}
	if lat.Count == 0 {
		t.Fatal("no sojourns measured")
	}
	floor := uint64(buf.Sizing().DelaySlots)
	if lat.P50 <= floor {
		t.Errorf("median sojourn %d slots does not see the %d-cell backlog (pipeline floor %d): %v (stats %+v)",
			lat.P50, 1024/queues, floor, lat, res.Stats)
	}
}

func TestGeneratorValidation(t *testing.T) {
	// Every rejection, from a constructor or the Runner, wraps
	// pktbuf.ErrBadConfig.
	check := func(err error, what string) {
		t.Helper()
		if err == nil {
			t.Errorf("%s accepted", what)
		} else if !errors.Is(err, pktbuf.ErrBadConfig) {
			t.Errorf("%s: %v does not wrap pktbuf.ErrBadConfig", what, err)
		}
	}
	_, err := sim.NewUniformArrivals(0, 0.5, 1)
	check(err, "zero queues")
	_, err = sim.NewRoundRobinArrivals(4, 1.5)
	check(err, "load > 1")
	_, err = sim.NewHotspotArrivals(4, 0.5, -0.1, 1)
	check(err, "negative hotFrac")
	_, err = sim.NewBurstyArrivals(4, 0.5, 8, 1)
	check(err, "meanOn < 1")
	_, err = sim.NewBurstyArrivals(4, 0, 5, 1)
	check(err, "meanOn 0")
	_, err = sim.NewBernoulliArrivals(4, 1.5, 1)
	check(err, "Bernoulli load > 1")
	_, err = sim.NewRoundRobinDrain(-2)
	check(err, "negative queues")
	_, err = sim.NewUniformRequests(4, 2, 1)
	check(err, "rate > 1")
	_, err = sim.NewLongestFirst(0)
	check(err, "zero queues")
	_, err = sim.NewPermutationDrain(nil)
	check(err, "empty permutation")
	_, err = (&sim.Runner{}).Run(10)
	check(err, "runner without buffer/generators")
	_, _, err = (&sim.Runner{Buffer: newBuffer(t, 4), Arrivals: sim.NewSingleQueueArrivals(0),
		Requests: sim.NewIdleRequests(), AllowDrops: true}).RunWithLatency(10)
	check(err, "latency run with AllowDrops")
}

// TestBatchArrivalEquivalence: every generator's NextBatch must be
// equivalent to calling Next per slot.
func TestBatchArrivalEquivalence(t *testing.T) {
	const queues, n = 8, 4096
	mk := func() []sim.ArrivalProcess {
		u1, _ := sim.NewUniformArrivals(queues, 0.6, 11)
		rr, _ := sim.NewRoundRobinArrivals(queues, 0.9)
		sq := sim.NewSingleQueueArrivals(3)
		return []sim.ArrivalProcess{u1, rr, sq}
	}
	ref, batched := mk(), mk()
	for i := range ref {
		ba, ok := batched[i].(sim.BatchArrivalProcess)
		if !ok {
			t.Fatalf("generator %d does not implement BatchArrivalProcess", i)
		}
		got := make([]pktbuf.Queue, n)
		ba.NextBatch(0, got)
		for s := 0; s < n; s++ {
			if want := ref[i].Next(uint64(s)); got[s] != want {
				t.Fatalf("generator %d slot %d: batch %d, per-slot %d", i, s, got[s], want)
			}
		}
	}
}
