package repro

import (
	"fmt"
	"testing"

	psim "repro/pktbuf/sim"

	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/facade"
	"repro/internal/testbuf"
	"repro/pktbuf"
)

// ------------------------------------------------------------------
// Paper experiment benchmarks: one per table/figure. Each bench both
// times the generator and sanity-checks its output, so `go test
// -bench=.` regenerates the full evaluation.
// ------------------------------------------------------------------

// BenchmarkFigure8 regenerates Figure 8 (RADS h-SRAM access time and
// area vs lookahead, OC-768 and OC-3072, CAM vs linked list).
func BenchmarkFigure8(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		figs := experiments.Figure8()
		if len(figs) != 2 {
			b.Fatal("bad Figure8 output")
		}
	}
}

// BenchmarkTable2 regenerates Table 2 (Requests Register sizes and
// scheduling times per granularity).
func BenchmarkTable2(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(experiments.Table2()) != 2 {
			b.Fatal("bad Table2 output")
		}
	}
}

// BenchmarkFigure10 regenerates Figure 10 (CFDS vs RADS SRAM area and
// access time as a function of delay, OC-3072).
func BenchmarkFigure10(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(experiments.Figure10()) != 6 {
			b.Fatal("bad Figure10 output")
		}
	}
}

// BenchmarkFigure11 regenerates Figure 11 (maximum queue count per
// granularity under the 3.2 ns budget).
func BenchmarkFigure11(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows := experiments.Figure11()
		if len(rows) != 6 {
			b.Fatal("bad Figure11 output")
		}
	}
}

// BenchmarkHeadline regenerates the §8.3/§10 RADS-vs-CFDS headline.
func BenchmarkHeadline(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h := experiments.Headline()
		if h.RADS.AccessCAM <= h.CFDS.AccessCAM {
			b.Fatal("headline inverted")
		}
	}
}

// ------------------------------------------------------------------
// Simulation benchmarks: slot-accurate runs of the full buffer under
// the §3 adversarial pattern. ns/op is the cost of one simulated
// slot; the reported miss metric must stay zero.
// ------------------------------------------------------------------

func benchSimulate(b *testing.B, cfg core.Config, queues int) {
	b.Helper()
	b.ReportAllocs()
	buf := testbuf.New(b, cfg)
	arr, _ := psim.NewRoundRobinArrivals(queues, 1.0)
	req, _ := psim.NewRoundRobinDrain(queues)
	warm := &psim.Runner{Buffer: buf, Arrivals: arr, Requests: psim.NewIdleRequests()}
	if _, err := warm.Run(uint64(queues * cfg.Bsmall * 8)); err != nil {
		b.Fatal(err)
	}
	r := &psim.Runner{Buffer: buf, Arrivals: arr, Requests: req}
	b.ResetTimer()
	res, err := r.RunBatch(uint64(b.N), 0)
	if err != nil {
		b.Fatalf("%v (stats %v)", err, res.Stats)
	}
	b.StopTimer()
	if res.Stats.Misses != 0 {
		b.Fatalf("misses: %v", res.Stats)
	}
	b.ReportMetric(float64(res.Stats.Deliveries)/float64(b.N), "deliveries/slot")
}

// BenchmarkSimulateRADS runs the baseline (b=B) under the adversarial
// round-robin drain.
func BenchmarkSimulateRADS(b *testing.B) {
	benchSimulate(b, core.Config{Q: 32, B: 32, Bsmall: 32, Banks: 256}, 32)
}

// BenchmarkSimulateCFDS sweeps the CFDS granularity — the paper's
// central ablation (Figure 10/11's x-axis).
func BenchmarkSimulateCFDS(b *testing.B) {
	for _, gran := range []int{16, 8, 4, 2, 1} {
		b.Run(fmt.Sprintf("b=%d", gran), func(b *testing.B) {
			benchSimulate(b, core.Config{Q: 32, B: 32, Bsmall: gran, Banks: 256}, 32)
		})
	}
}

// BenchmarkSimulateSRAMOrg compares the two shared-SRAM organizations
// on the same workload (functional ablation of §7.1/§8.2).
func BenchmarkSimulateSRAMOrg(b *testing.B) {
	for _, org := range []core.SRAMOrg{core.OrgCAM, core.OrgLinkedList} {
		b.Run(org.String(), func(b *testing.B) {
			benchSimulate(b, core.Config{Q: 32, B: 32, Bsmall: 4, Banks: 256, Org: org}, 32)
		})
	}
}

// BenchmarkSimulateMMA compares ECQF against the lookahead-free MDQF
// baseline ([13]'s trade-off).
func BenchmarkSimulateMMA(b *testing.B) {
	for _, m := range []core.MMAKind{core.ECQF, core.MDQF} {
		b.Run(m.String(), func(b *testing.B) {
			benchSimulate(b, core.Config{Q: 32, B: 32, Bsmall: 4, Banks: 256, MMA: m}, 32)
		})
	}
}

// BenchmarkSimulateRenaming measures the §6 renaming layer's overhead
// on the datapath (unbounded DRAM, so renaming is pure bookkeeping).
func BenchmarkSimulateRenaming(b *testing.B) {
	for _, renaming := range []bool{false, true} {
		b.Run(fmt.Sprintf("renaming=%v", renaming), func(b *testing.B) {
			benchSimulate(b, core.Config{Q: 32, B: 32, Bsmall: 4, Banks: 256, Renaming: renaming}, 32)
		})
	}
}

// BenchmarkSimulateHotspot runs the skewed workload (80% of traffic on
// one queue) at full drain rate.
func BenchmarkSimulateHotspot(b *testing.B) {
	b.ReportAllocs()
	buf := testbuf.New(b, core.Config{Q: 32, B: 32, Bsmall: 4, Banks: 256})
	arr, _ := psim.NewHotspotArrivals(32, 1.0, 0.8, 17)
	req, _ := psim.NewRoundRobinDrain(32)
	r := &psim.Runner{Buffer: buf, Arrivals: arr, Requests: req}
	b.ResetTimer()
	res, err := r.RunBatch(uint64(b.N), 0)
	if err != nil {
		b.Fatalf("%v (stats %v)", err, res.Stats)
	}
	b.StopTimer()
	if res.Stats.Misses != 0 {
		b.Fatal("misses")
	}
}

// BenchmarkSimulateLargeScale runs a paper-scale configuration
// (Q=512, b=4, M=256 — the Figure 10 design point) to show the
// simulator handles the full system.
func BenchmarkSimulateLargeScale(b *testing.B) {
	b.ReportAllocs()
	buf := testbuf.New(b, core.Config{Q: 512, B: 32, Bsmall: 4, Banks: 256})
	arr, _ := psim.NewRoundRobinArrivals(512, 1.0)
	req, _ := psim.NewRoundRobinDrain(512)
	warm := &psim.Runner{Buffer: buf, Arrivals: arr, Requests: psim.NewIdleRequests()}
	if _, err := warm.Run(512 * 16); err != nil {
		b.Fatal(err)
	}
	r := &psim.Runner{Buffer: buf, Arrivals: arr, Requests: req}
	b.ResetTimer()
	res, err := r.RunBatch(uint64(b.N), 0)
	if err != nil {
		b.Fatalf("%v (stats %v)", err, res.Stats)
	}
	b.StopTimer()
	if res.Stats.Misses != 0 {
		b.Fatal("misses")
	}
}

// BenchmarkSingleQueueBlast is the single-group stress: all traffic on
// one queue sustains 2 cells/slot on B/b banks (skips exercised).
func BenchmarkSingleQueueBlast(b *testing.B) {
	b.ReportAllocs()
	buf := testbuf.New(b, core.Config{Q: 16, B: 32, Bsmall: 4, Banks: 64})
	req, _ := psim.NewRoundRobinDrain(16)
	warm := &psim.Runner{Buffer: buf, Arrivals: psim.NewSingleQueueArrivals(0), Requests: psim.NewIdleRequests()}
	if _, err := warm.Run(512); err != nil {
		b.Fatal(err)
	}
	r := &psim.Runner{Buffer: buf, Arrivals: psim.NewSingleQueueArrivals(0), Requests: req}
	b.ResetTimer()
	res, err := r.RunBatch(uint64(b.N), 0)
	if err != nil {
		b.Fatalf("%v (stats %v)", err, res.Stats)
	}
	b.StopTimer()
	if res.Stats.Misses != 0 {
		b.Fatal("misses")
	}
	b.ReportMetric(float64(res.Stats.MaxRequestSkips), "max-skips")
}

// BenchmarkTick measures the raw per-slot cost of the buffer with no
// traffic (pipeline bookkeeping floor).
func BenchmarkTick(b *testing.B) {
	buf, err := core.New(core.Config{Q: 64, B: 32, Bsmall: 4, Banks: 256})
	if err != nil {
		b.Fatal(err)
	}
	in := core.TickInput{Arrival: cell.NoQueue, Request: cell.NoQueue}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := buf.Tick(in); err != nil {
			b.Fatal(err)
		}
	}
}

// ------------------------------------------------------------------
// BenchmarkTick* steady-state suite: per-slot cost of Tick under
// sustained full-rate traffic (one arrival and one request per slot,
// the §3 adversarial round-robin drain) at the OC-3072 design point
// (B=32). ns/op is the cost of one simulated slot including workload
// generation; allocs/op is the bookkeeping gate — the dense-arena
// datapath must stay at ~0 in steady state. Baselines are recorded in
// BENCH_baseline.json.
// ------------------------------------------------------------------

// warmCore builds the buffer dimensioned as cfg and runs it through
// the public Runner: warmSlots of round-robin arrivals with no
// requests, then steadySlots under the §3 round-robin drain. It
// returns the public buffer, the core buffer behind it and the
// generators, positioned to go on; the timed loops tick the core
// buffer directly, with the policy probing the public one.
func warmCore(tb testing.TB, cfg core.Config, queues int, warmSlots, steadySlots uint64) (*pktbuf.Buffer, *core.Buffer, psim.ArrivalProcess, psim.RequestPolicy) {
	tb.Helper()
	pub := testbuf.New(tb, cfg)
	arr, _ := psim.NewRoundRobinArrivals(queues, 1.0)
	req, _ := psim.NewRoundRobinDrain(queues)
	warm := &psim.Runner{Buffer: pub, Arrivals: arr, Requests: psim.NewIdleRequests()}
	if _, err := warm.Run(warmSlots); err != nil {
		tb.Fatal(err)
	}
	steady := &psim.Runner{Buffer: pub, Arrivals: arr, Requests: req}
	if _, err := steady.Run(steadySlots); err != nil {
		tb.Fatal(err)
	}
	return pub, facade.CoreOf(pub), arr, req
}

func benchTickSteadyState(b *testing.B, cfg core.Config, queues int) {
	b.Helper()
	pub, buf, arr, req := warmCore(b, cfg, queues, uint64(queues*cfg.B*4), uint64(queues*cfg.B*8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := uint64(buf.Now())
		in := core.TickInput{Arrival: cell.QueueID(arr.Next(now)), Request: cell.QueueID(req.Next(now, pub))}
		if _, err := buf.Tick(in); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if buf.Stats().Misses != 0 {
		b.Fatalf("misses: %v", buf.Stats())
	}
}

// BenchmarkTickOC3072SteadyState is the headline regression gate: the
// CFDS design point (Q=64, B=32, b=4, M=256, CAM SRAM) in steady
// state.
func BenchmarkTickOC3072SteadyState(b *testing.B) {
	benchTickSteadyState(b, core.Config{Q: 64, B: 32, Bsmall: 4, Banks: 256}, 64)
}

// BenchmarkTickOC3072Renaming adds the §6 renaming layer on the same
// design point.
func BenchmarkTickOC3072Renaming(b *testing.B) {
	benchTickSteadyState(b, core.Config{Q: 64, B: 32, Bsmall: 4, Banks: 256, Renaming: true}, 64)
}

// BenchmarkTickOC3072ListSRAM swaps in the unified linked-list head
// SRAM (the zero-map slab organization).
func BenchmarkTickOC3072ListSRAM(b *testing.B) {
	benchTickSteadyState(b, core.Config{Q: 64, B: 32, Bsmall: 4, Banks: 256, Org: core.OrgLinkedList}, 64)
}

// BenchmarkTickOC3072LargeScale is the Figure 10 paper-scale point
// (Q=512) in steady state.
func BenchmarkTickOC3072LargeScale(b *testing.B) {
	benchTickSteadyState(b, core.Config{Q: 512, B: 32, Bsmall: 4, Banks: 256}, 512)
}

// ------------------------------------------------------------------
// BenchmarkTickSparse suite: per-slot cost at low offered loads,
// where most slots carry no arrival and no request. The sparse
// variant is the event-driven fast path (Bernoulli gap generator +
// idle-stable drain policy + Buffer.FastForward through quiescent
// spans); the dense variant runs the identical workload with the
// fast paths hidden, paying the full per-slot loop. Cost per
// simulated slot includes workload generation and the request
// policy — exactly what a driver pays. The configuration is a
// short-pipeline point (lookahead 2 + latency 2, so idle gaps at
// ρ=0.01 dwarf the request pipeline) at RADS granularity b=B, where
// these loads never accumulate a DRAM block and the run stays
// miss-free by construction. Baselines live in BENCH_baseline.json
// (sparse_ff_pr5 section).
// ------------------------------------------------------------------

// benchDenseArrivals hides the sparse/batch fast paths of a generator.
type benchDenseArrivals struct{ inner psim.ArrivalProcess }

func (d benchDenseArrivals) Next(slot uint64) pktbuf.Queue { return d.inner.Next(slot) }

// benchUnstableRequests hides a policy's idle-stable marker.
type benchUnstableRequests struct{ inner psim.RequestPolicy }

func (u benchUnstableRequests) Next(slot uint64, v psim.View) pktbuf.Queue {
	return u.inner.Next(slot, v)
}

func benchTickSparse(b *testing.B, queues int, load float64, dense bool) {
	b.ReportAllocs()
	buf := testbuf.New(b, core.Config{
		Q: queues, B: 32, Bsmall: 32, Banks: 256, Lookahead: 2, LatencySlots: 2,
	})
	arr, err := psim.NewBernoulliArrivals(queues, load, 1)
	if err != nil {
		b.Fatal(err)
	}
	req, err := psim.NewRoundRobinDrain(queues)
	if err != nil {
		b.Fatal(err)
	}
	r := &psim.Runner{Buffer: buf, Arrivals: arr, Requests: req}
	if dense {
		r.Arrivals = benchDenseArrivals{arr}
		r.Requests = benchUnstableRequests{req}
	}
	b.ResetTimer()
	res, err := r.RunBatch(uint64(b.N), 0)
	if err != nil {
		b.Fatalf("%v (stats %v)", err, res.Stats)
	}
	b.StopTimer()
	if res.Stats.Misses != 0 || res.Stats.BadRequests != 0 {
		b.Fatalf("not clean: %v", res.Stats)
	}
	b.ReportMetric(100*float64(res.Stats.FastForwardedSlots)/float64(b.N), "%slots-skipped")
}

// BenchmarkTickSparse measures the event-driven fast path across the
// low-load/bursty scenario family (ρ ∈ {0.01, 0.1, 0.5} × Q ∈ {1k,
// 64k}). Gate: at ρ=0.01 the sparse path must be ≥10× cheaper per
// simulated slot than BenchmarkTickSparseDense at the same load, at
// 0 allocs/op.
func BenchmarkTickSparse(b *testing.B) {
	for _, load := range []float64{0.01, 0.1, 0.5} {
		for _, queues := range []int{1024, 65536} {
			b.Run(fmt.Sprintf("rho=%g/Q=%d", load, queues), func(b *testing.B) {
				benchTickSparse(b, queues, load, false)
			})
		}
	}
}

// BenchmarkTickSparseDense is the dense reference: the identical
// workload with the fast paths hidden, paying the full per-slot loop.
func BenchmarkTickSparseDense(b *testing.B) {
	for _, load := range []float64{0.01, 0.1, 0.5} {
		for _, queues := range []int{1024, 65536} {
			b.Run(fmt.Sprintf("rho=%g/Q=%d", load, queues), func(b *testing.B) {
				benchTickSparse(b, queues, load, true)
			})
		}
	}
}

// BenchmarkTickQueueScaling sweeps the queue count across three
// orders of magnitude for both head MMAs. Per-slot cost must stay
// near-flat: every selection decision resolves through the
// hierarchical bitmap indices (O(log₆₄ Q)) rather than scanning the
// Q occupancy counters or the Q(b−1)+1 lookahead, so queue count no
// longer prices the hot path. Warmup is deliberately light (the full
// steady-state soak at Q=64k would dwarf the measurement); the
// no-miss gate still holds by construction.
func BenchmarkTickQueueScaling(b *testing.B) {
	for _, m := range []core.MMAKind{core.ECQF, core.MDQF} {
		for _, queues := range []int{64, 1024, 16384, 65536} {
			b.Run(fmt.Sprintf("%s/Q=%d", m, queues), func(b *testing.B) {
				pub, buf, arr, req := warmCore(b, core.Config{Q: queues, B: 32, Bsmall: 4, Banks: 256, MMA: m},
					queues, uint64(queues*4), uint64(queues*2))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					now := uint64(buf.Now())
					in := core.TickInput{Arrival: cell.QueueID(arr.Next(now)), Request: cell.QueueID(req.Next(now, pub))}
					if _, err := buf.Tick(in); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				if buf.Stats().Misses != 0 {
					b.Fatalf("misses: %v", buf.Stats())
				}
			})
		}
	}
}
