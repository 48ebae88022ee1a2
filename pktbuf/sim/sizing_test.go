package sim_test

import (
	"fmt"
	"testing"

	"repro/pktbuf"
	"repro/pktbuf/sim"
)

// TestHeadSizingSweep: the default head SRAM size is the ECQF ledger
// bound Q(b−1) + L + Λ, so no supported configuration may overflow it.
// The test runs the pktbufsim grid — Q ∈ {16, 64, 128, 512} × b ∈ {2,
// 4, 8, 16, 32} × four in-model workloads × seeds 1–2, OC-3072 with 256
// banks, a Q·b·4-slot arrival-only warm-up and 30 000 slots — plus a
// renaming point, a linked-list point and the benchmark's sparse shape
// (RADS, Lookahead 2, LatencySlots 2, Bernoulli load 0.02), and
// requires every run to end without error, with no refused head
// landing and a head high-water within the size. The hand-padded size
// this replaced overflowed 41 of the 160 grid runs.
func TestHeadSizingSweep(t *testing.T) {
	type workload struct {
		name string
		arr  func(q int, seed int64) (sim.ArrivalProcess, error)
		req  func(q int, seed int64) (sim.RequestPolicy, error)
	}
	uniform := func(q int, seed int64) (sim.ArrivalProcess, error) { return sim.NewUniformArrivals(q, 1, seed) }
	bursty := func(q int, seed int64) (sim.ArrivalProcess, error) { return sim.NewBurstyArrivals(q, 32, 0, seed) }
	roundRobin := func(q int, _ int64) (sim.ArrivalProcess, error) { return sim.NewRoundRobinArrivals(q, 1) }
	uniformReq := func(q int, seed int64) (sim.RequestPolicy, error) { return sim.NewUniformRequests(q, 1, seed+1) }
	drain := func(q int, _ int64) (sim.RequestPolicy, error) { return sim.NewRoundRobinDrain(q) }
	workloads := []workload{
		{"uniform/uniform", uniform, uniformReq},
		{"bursty/uniform", bursty, uniformReq},
		{"bursty/rrdrain", bursty, drain},
		{"roundrobin/rrdrain", roundRobin, drain},
	}
	type run struct {
		name string
		cfg  pktbuf.Config
		w    workload
		seed int64
	}
	var runs []run
	for _, q := range []int{16, 64, 128, 512} {
		for _, b := range []int{2, 4, 8, 16, 32} {
			for _, w := range workloads {
				for seed := int64(1); seed <= 2; seed++ {
					runs = append(runs, run{fmt.Sprintf("q%d/b%d/%s/seed%d", q, b, w.name, seed),
						pktbuf.Config{Queues: q, LineRate: pktbuf.OC3072, Granularity: b, Banks: 256}, w, seed})
				}
			}
		}
	}
	runs = append(runs,
		run{"renaming/q64/b4", pktbuf.Config{Queues: 64, LineRate: pktbuf.OC3072, Granularity: 4, Banks: 256, Renaming: true}, workloads[0], 1},
		run{"list/q64/b8", pktbuf.Config{Queues: 64, LineRate: pktbuf.OC3072, Granularity: 8, Banks: 256, Organization: pktbuf.UnifiedLinkedList}, workloads[0], 1},
		run{"sparse/q1024", pktbuf.Config{Queues: 1024, LineRate: pktbuf.OC3072, Banks: 256, Lookahead: 2, LatencySlots: 2}, workload{
			"bernoulli/rrdrain",
			func(q int, seed int64) (sim.ArrivalProcess, error) { return sim.NewBernoulliArrivals(q, 0.02, seed) },
			drain,
		}, 1},
	)
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			t.Parallel()
			buf, err := pktbuf.New(r.cfg)
			if err != nil {
				t.Fatal(err)
			}
			arr, err := r.w.arr(r.cfg.Queues, r.seed)
			if err != nil {
				t.Fatal(err)
			}
			req, err := r.w.req(r.cfg.Queues, r.seed)
			if err != nil {
				t.Fatal(err)
			}
			sz := buf.Sizing()
			warm := &sim.Runner{Buffer: buf, Arrivals: arr, Requests: sim.NewIdleRequests()}
			if _, err := warm.RunBatch(uint64(r.cfg.Queues*sz.Granularity*4), 0); err != nil {
				t.Fatalf("warm-up: %v", err)
			}
			if _, err := (&sim.Runner{Buffer: buf, Arrivals: arr, Requests: req}).RunBatch(30000, 0); err != nil {
				t.Fatal(err)
			}
			st := buf.Stats()
			if st.HeadOverflows != 0 || st.HeadSRAMHighWater > sz.HeadSRAMCells {
				t.Errorf("head overflows %d, high-water %d of %d cells", st.HeadOverflows, st.HeadSRAMHighWater, sz.HeadSRAMCells)
			}
		})
	}
}
