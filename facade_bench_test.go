package repro

import (
	"testing"

	"repro/pktbuf"
	psim "repro/pktbuf/sim"
)

// ------------------------------------------------------------------
// BenchmarkPktbuf* façade suite: the same steady-state workloads as
// the internal BenchmarkTick* suite, driven entirely through the
// public API. The façade is required to be the fast path: steady
// state must report 0 allocs/op (Output has value semantics, the
// runner and the generators are allocation-free) and land within
// ~10% of the equivalent internal numbers. Baselines live in
// BENCH_baseline.json.
// ------------------------------------------------------------------

// oc3072 is the public equivalent of the internal OC-3072 design
// point (Q=64, B=32, b=4, M=256, CAM SRAM).
func oc3072() pktbuf.Config {
	return pktbuf.Config{Queues: 64, LineRate: pktbuf.OC3072, Granularity: 4, Banks: 256}
}

// newSteadyFacade builds a buffer and drives it to the adversarial
// steady state: warmup backlog first, then full-rate round-robin
// arrivals against the §3 round-robin drain.
func newSteadyFacade(tb testing.TB, cfg pktbuf.Config, queues int) (*pktbuf.Buffer, psim.ArrivalProcess, psim.RequestPolicy) {
	tb.Helper()
	buf, err := pktbuf.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	arr, _ := psim.NewRoundRobinArrivals(queues, 1.0)
	req, _ := psim.NewRoundRobinDrain(queues)
	bigB := buf.Sizing().GranularityB
	warm := &psim.Runner{Buffer: buf, Arrivals: arr, Requests: psim.NewIdleRequests()}
	if _, err := warm.Run(uint64(queues * bigB * 4)); err != nil {
		tb.Fatal(err)
	}
	steady := &psim.Runner{Buffer: buf, Arrivals: arr, Requests: req}
	if _, err := steady.Run(uint64(queues * bigB * 8)); err != nil {
		tb.Fatal(err)
	}
	return buf, arr, req
}

func benchPktbufTickSteadyState(b *testing.B, cfg pktbuf.Config, queues int) {
	b.Helper()
	buf, arr, req := newSteadyFacade(b, cfg, queues)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := pktbuf.Input{Arrival: arr.Next(buf.Now()), Request: req.Next(buf.Now(), buf)}
		if _, err := buf.Tick(in); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if buf.Stats().Misses != 0 {
		b.Fatalf("misses: %+v", buf.Stats())
	}
}

// BenchmarkPktbufTickOC3072SteadyState is the façade twin of the
// internal BenchmarkTickOC3072SteadyState regression gate.
func BenchmarkPktbufTickOC3072SteadyState(b *testing.B) {
	benchPktbufTickSteadyState(b, oc3072(), 64)
}

// BenchmarkPktbufTickIdle measures the per-slot façade floor with no
// traffic (pipeline bookkeeping plus the Output conversion).
func BenchmarkPktbufTickIdle(b *testing.B) {
	buf, err := pktbuf.New(oc3072())
	if err != nil {
		b.Fatal(err)
	}
	in := pktbuf.Input{Arrival: pktbuf.None, Request: pktbuf.None}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := buf.Tick(in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPktbufTickBatch pushes the steady-state workload through
// the TickBatch entry point with precomputed input batches: in the
// steady state one arrival plus one request per slot, both cycling
// the queues round-robin, keeps every occupancy constant, so the
// stimulus is a fixed repeating pattern.
func BenchmarkPktbufTickBatch(b *testing.B) {
	const queues = 64
	buf, _, _ := newSteadyFacade(b, oc3072(), queues)
	const batch = 2048 // multiple of queues, so batches tile the cycle
	in := make([]pktbuf.Input, batch)
	out := make([]pktbuf.Output, batch)
	for i := range in {
		q := pktbuf.Queue(i % queues)
		in[i] = pktbuf.Input{Arrival: q, Request: q}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for left := b.N; left > 0; {
		n := batch
		if left < n {
			n = left
		}
		if _, err := buf.TickBatch(in[:n], out[:n]); err != nil {
			b.Fatal(err)
		}
		left -= n
	}
	b.StopTimer()
	if buf.Stats().Misses != 0 {
		b.Fatalf("misses: %+v", buf.Stats())
	}
}

// BenchmarkPktbufRunBatch is the acceptance gate for the public
// driver: the full public sim.Runner batched loop (generator
// adapters included) on the OC-3072 steady state. It must report 0
// allocs/op and stay within ~10% of the internal
// BenchmarkTickOC3072SteadyState number.
func BenchmarkPktbufRunBatch(b *testing.B) {
	const queues = 64
	buf, arr, req := newSteadyFacade(b, oc3072(), queues)
	r := &psim.Runner{Buffer: buf, Arrivals: arr, Requests: req}
	// Prime the runner's scratch so the timed region allocates nothing.
	if _, err := r.RunBatch(1, 0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	res, err := r.RunBatch(uint64(b.N), 0)
	if err != nil {
		b.Fatalf("%v (stats %+v)", err, res.Stats)
	}
	b.StopTimer()
	if res.Stats.Misses != 0 {
		b.Fatalf("misses: %+v", res.Stats)
	}
}

// TestFacadeSteadyStateZeroAlloc asserts the façade hot paths
// allocate nothing in steady state — the allocs/op gate as a plain
// test, so `go test` catches a regression without running benchmarks.
func TestFacadeSteadyStateZeroAlloc(t *testing.T) {
	const queues = 64
	buf, arr, req := newSteadyFacade(t, oc3072(), queues)

	if avg := testing.AllocsPerRun(5000, func() {
		in := pktbuf.Input{Arrival: arr.Next(buf.Now()), Request: req.Next(buf.Now(), buf)}
		if _, err := buf.Tick(in); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("steady-state Tick allocates %.1f per slot, want 0", avg)
	}

	in := make([]pktbuf.Input, queues)
	out := make([]pktbuf.Output, queues)
	for i := range in {
		q := pktbuf.Queue(i % queues)
		in[i] = pktbuf.Input{Arrival: q, Request: q}
	}
	if avg := testing.AllocsPerRun(200, func() {
		if _, err := buf.TickBatch(in, out); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("steady-state TickBatch allocates %.1f per batch, want 0", avg)
	}

	r := &psim.Runner{Buffer: buf, Arrivals: arr, Requests: req}
	if _, err := r.RunBatch(64, 0); err != nil { // prime the scratch buffer
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(50, func() {
		if _, err := r.RunBatch(256, 0); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("steady-state Runner.RunBatch allocates %.1f per call, want 0", avg)
	}
}
