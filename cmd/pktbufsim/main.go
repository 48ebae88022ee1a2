// Command pktbufsim runs the slot-accurate packet-buffer simulator
// under a chosen workload and prints the invariant verdict and
// statistics. It is the general-purpose harness behind the paper's
// zero-miss and conflict-freedom claims, and it is built entirely on
// the public API (repro/pktbuf and its sim and trace subpackages).
//
// Example — the §3 adversarial pattern on a CFDS buffer:
//
//	pktbufsim -queues 64 -rate oc3072 -b 4 -slots 200000 \
//	          -arrivals roundrobin -requests rrdrain
//
// With -router the harness drives the full Figure-1 system instead:
// the router engine (repro/pktbuf/router) with one VOQ buffer
// per input port, segmentation, an iSLIP fabric and output
// reassembly:
//
//	pktbufsim -router -ports 8 -classes 2 -b 4 -slots 200000
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"

	"repro/pktbuf"
	"repro/pktbuf/packet"
	"repro/pktbuf/router"
	"repro/pktbuf/sim"
	"repro/pktbuf/trace"
)

func lineRate(s string) (pktbuf.LineRate, error) {
	switch s {
	case "oc192":
		return pktbuf.OC192, nil
	case "oc768":
		return pktbuf.OC768, nil
	case "oc3072":
		return pktbuf.OC3072, nil
	default:
		return 0, fmt.Errorf("unknown rate %q (oc192|oc768|oc3072)", s)
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("pktbufsim: ")

	var (
		queues    = flag.Int("queues", 16, "number of VOQs (Q)")
		rateName  = flag.String("rate", "oc3072", "line rate: oc192|oc768|oc3072")
		gran      = flag.Int("b", 0, "CFDS granularity b in cells (0 = RADS baseline b=B)")
		banks     = flag.Int("banks", 256, "DRAM banks (M)")
		bankCap   = flag.Int("bankcap", 0, "blocks per bank (0 = unbounded)")
		renaming  = flag.Bool("renaming", false, "enable §6 queue renaming")
		lookahead = flag.Int("lookahead", 0, "MMA lookahead override in slots (0 = full ECQF lookahead Q(b-1)+1; small values shorten the request pipeline so sparse loads can fast-forward)")
		latSlots  = flag.Int("latslots", 0, "latency register override in slots (0 = equation (3) default; combine with -lookahead for a short pipeline)")
		orgName   = flag.String("org", "cam", "SRAM organization: cam|list")
		mmaName   = flag.String("mma", "ecqf", "head MMA: ecqf|mdqf")
		slots     = flag.Uint64("slots", 100000, "slots to simulate")
		report    = flag.Uint64("report", 0, "print an engine stats delta every this many slots (0 = off; ignored with -latency/-router)")
		batch     = flag.Uint64("batch", 0, "batched-driver chunk size in slots (0 = default; 1 = plain per-slot loop)")
		warmup    = flag.Uint64("warmup", 0, "arrival-only slots before requests start (0 = auto: Q·b·4)")
		arrName   = flag.String("arrivals", "roundrobin", "arrivals: roundrobin|bernoulli|uniform|hotspot|bursty|single|none (bernoulli draws geometric gaps, so sparse -load runs fast-forward idle spans)")
		reqName   = flag.String("requests", "rrdrain", "requests: rrdrain|uniform|longest|none")
		load      = flag.Float64("load", 1.0, "offered arrival load (cells/slot; also paces -router mode)")
		seed      = flag.Int64("seed", 1, "workload RNG seed")
		allow     = flag.Bool("allowdrops", false, "tolerate drops when the DRAM is bounded")
		record    = flag.String("record", "", "record the workload trace to this file")
		replay    = flag.String("replay", "", "replay a recorded trace instead of generating (overrides -arrivals/-requests/-warmup/-slots)")
		latency   = flag.Bool("latency", false, "measure per-cell sojourn times (cells buffered before measurement are excluded; with -replay the samples therefore include the recorded warmup prefix, which a recording run's -latency does not see)")

		cpuProf   = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProf   = flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
		blockProf = flag.String("blockprofile", "", "write a pprof blocking profile at exit to this file (enables block profiling)")

		routerMode = flag.Bool("router", false, "drive the Figure-1 router engine instead of a single buffer (uses -ports/-classes/-iters; -queues/-arrivals/-requests/-warmup/-record/-replay/-latency are ignored)")
		ports      = flag.Int("ports", 4, "router mode: input (= output) ports")
		classes    = flag.Int("classes", 1, "router mode: service classes per output")
		iters      = flag.Int("iters", 1, "router mode: iSLIP iterations per slot")
		pktBytes   = flag.Int("pktbytes", 576, "router mode: mean packet size in bytes (trimodal mix around it)")
	)
	flag.Parse()

	if err := startProfiles(*cpuProf, *memProf, *blockProf); err != nil {
		log.Fatal(err)
	}
	defer stopProfiles()

	rate, err := lineRate(*rateName)
	if err != nil {
		log.Fatal(err)
	}
	cfg := pktbuf.Config{
		Queues:             *queues,
		LineRate:           rate,
		Granularity:        *gran,
		Banks:              *banks,
		BankCapacityBlocks: *bankCap,
		Renaming:           *renaming,
		Lookahead:          *lookahead,
		LatencySlots:       *latSlots,
	}
	switch *orgName {
	case "cam":
		cfg.Organization = pktbuf.GlobalCAM
	case "list":
		cfg.Organization = pktbuf.UnifiedLinkedList
	default:
		log.Fatalf("unknown org %q", *orgName)
	}
	switch *mmaName {
	case "ecqf":
		cfg.MMA = pktbuf.ECQF
	case "mdqf":
		cfg.MMA = pktbuf.MDQF
	default:
		log.Fatalf("unknown mma %q", *mmaName)
	}

	if *routerMode {
		runRouter(cfg, routerOpts{
			ports: *ports, classes: *classes, iters: *iters,
			slots: *slots, load: *load, seed: *seed, meanBytes: *pktBytes,
		})
		return
	}

	buf, err := pktbuf.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	s := buf.Sizing()
	fmt.Printf("config: Q=%d B=%d b=%d M=%d lookahead=%d latency=%d RR=%d headSRAM=%d tailSRAM=%d renaming=%v org=%s mma=%s\n",
		cfg.Queues, s.GranularityB, s.Granularity, *banks, s.Lookahead, s.LatencySlots,
		s.RequestRegister, s.HeadSRAMCells, s.TailSRAMCells, cfg.Renaming, *orgName, *mmaName)

	var arr sim.ArrivalProcess
	switch *arrName {
	case "roundrobin":
		arr, err = sim.NewRoundRobinArrivals(*queues, *load)
	case "bernoulli":
		arr, err = sim.NewBernoulliArrivals(*queues, *load, *seed)
	case "uniform":
		arr, err = sim.NewUniformArrivals(*queues, *load, *seed)
	case "hotspot":
		arr, err = sim.NewHotspotArrivals(*queues, *load, 0.8, *seed)
	case "bursty":
		arr, err = sim.NewBurstyArrivals(*queues, 32, 32*(1-*load)/maxf(*load, 0.01), *seed)
	case "single":
		arr = sim.NewSingleQueueArrivals(0)
	case "none":
		arr = noneArrivals{}
	default:
		log.Fatalf("unknown arrivals %q", *arrName)
	}
	if err != nil {
		log.Fatal(err)
	}

	var req sim.RequestPolicy
	switch *reqName {
	case "rrdrain":
		req, err = sim.NewRoundRobinDrain(*queues)
	case "uniform":
		req, err = sim.NewUniformRequests(*queues, *load, *seed+1)
	case "longest":
		req, err = sim.NewLongestFirst(*queues)
	case "none":
		req = sim.NewIdleRequests()
	default:
		log.Fatalf("unknown requests %q", *reqName)
	}
	if err != nil {
		log.Fatal(err)
	}

	var rec *trace.Recorder
	if *replay != "" {
		if *record != "" {
			log.Fatal("-record cannot be combined with -replay (the trace already exists)")
		}
		f, err := os.Open(*replay)
		if err != nil {
			log.Fatal(err)
		}
		tr, err := trace.Read(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		arr, req = trace.NewReplayer(tr).Halves()
		// Replay the whole trace: it contains the recording run's
		// warmup prefix, so cutting it at -slots would replay a
		// different (request-starved) experiment.
		*slots = uint64(len(tr.Events))
	} else {
		w := *warmup
		if w == 0 {
			w = uint64(cfg.Queues * s.Granularity * 4)
		}
		// When recording, the warmup slots must be part of the trace:
		// a replay starts from an empty buffer, so a trace that began
		// after the warmup would request queues that are still empty.
		warmArr, warmReq := arr, sim.NewIdleRequests()
		if *record != "" {
			rec = &trace.Recorder{Arr: arr, Req: warmReq}
			warmArr, warmReq = rec.Halves()
		}
		warmRunner := &sim.Runner{Buffer: buf, Arrivals: warmArr, Requests: warmReq, AllowDrops: *allow}
		if _, err := warmRunner.Run(w); err != nil {
			log.Fatalf("warmup: %v", err)
		}
		if rec != nil {
			rec.Req = req
			arr, req = rec.Halves()
		}
	}
	runner := &sim.Runner{Buffer: buf, Arrivals: arr, Requests: req, AllowDrops: *allow}
	before := buf.Stats()
	var res sim.Result
	if *latency {
		var lat sim.LatencyStats
		res, lat, err = runner.RunWithLatency(*slots)
		if err == nil {
			fmt.Printf("%v\n", lat)
		}
	} else if *report > 0 {
		// Chunk the run at the reporting interval and print interval
		// deltas via Stats.Sub; repeated RunBatch calls on one runner
		// continue the same experiment.
		prev := buf.Stats()
		var done uint64
		for done < *slots && err == nil {
			chunk := *report
			if rem := *slots - done; chunk > rem {
				chunk = rem
			}
			res, err = runner.RunBatch(chunk, *batch)
			done += res.Slots
			cur := buf.Stats()
			d := cur.Sub(prev)
			fmt.Printf("report: slots=%d/%d arrivals=%d requests=%d deliveries=%d bypasses=%d misses=%d drops=%d ff=%d\n",
				done, *slots, d.Arrivals, d.Requests, d.Deliveries,
				d.Bypasses, d.Misses, d.Drops, d.FastForwardedSlots)
			prev = cur
		}
		res.Slots = done
	} else {
		res, err = runner.RunBatch(*slots, *batch)
	}
	if err != nil {
		log.Printf("INVARIANT VIOLATION: %v", err)
		fmt.Printf("stats: %+v\n", res.Stats)
		exit(1)
	}
	if rec != nil {
		f, err := os.Create(*record)
		if err != nil {
			log.Fatal(err)
		}
		if err := rec.Trace().Write(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trace: %d slots recorded to %s\n", len(rec.Trace().Events), *record)
	}
	fmt.Printf("stats: %+v\n", res.Stats)
	if res.Slots > 0 {
		fmt.Println(sparseLine(res, before))
	}
	if res.Clean() {
		fmt.Println("verdict: CLEAN — zero misses, zero conflicts, bounded reordering")
	} else {
		fmt.Println("verdict: NOT CLEAN")
		exit(1)
	}
}

// sparseLine reports the share of the measured run's slots that were
// fast-forwarded. res.Stats is cumulative over the buffer's life, so
// the counter is taken against before, the stats the run started from:
// warm-up fast-forwards are not measured slots.
func sparseLine(res sim.Result, before pktbuf.Stats) string {
	ff := res.Stats.Sub(before).FastForwardedSlots
	return fmt.Sprintf("sparse: %d/%d slots fast-forwarded (%.1f%%)",
		ff, res.Slots, 100*float64(ff)/float64(res.Slots))
}

// stopProfiles finalizes whatever startProfiles armed. It is a
// package-level hook so the early-exit paths (invariant violations,
// NOT CLEAN verdicts) can flush profiles before os.Exit skips the
// deferred call; exit routes them all through it.
var stopProfiles = func() {}

// startProfiles arms the requested pprof outputs: the CPU profile
// runs from here to exit, the heap and block profiles are snapshotted
// at exit. Block profiling is only enabled when asked for.
func startProfiles(cpu, mem, block string) error {
	var cpuF *os.File
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		cpuF = f
	}
	if block != "" {
		runtime.SetBlockProfileRate(1)
	}
	var once sync.Once
	stopProfiles = func() {
		once.Do(func() {
			if cpuF != nil {
				pprof.StopCPUProfile()
				cpuF.Close()
			}
			snapshot := func(profile, path string) {
				if path == "" {
					return
				}
				f, err := os.Create(path)
				if err != nil {
					log.Printf("%s profile: %v", profile, err)
					return
				}
				if profile == "heap" {
					runtime.GC()
				}
				if err := pprof.Lookup(profile).WriteTo(f, 0); err != nil {
					log.Printf("%s profile: %v", profile, err)
				}
				f.Close()
			}
			snapshot("heap", mem)
			snapshot("block", block)
		})
	}
	return nil
}

// exit flushes any armed profiles before terminating with code.
func exit(code int) {
	stopProfiles()
	os.Exit(code)
}

type noneArrivals struct{}

func (noneArrivals) Next(uint64) pktbuf.Queue { return pktbuf.None }

type routerOpts struct {
	ports, classes, iters int
	slots                 uint64
	load                  float64
	seed                  int64
	meanBytes             int
}

// runRouter drives the router engine under uniform random
// packet traffic paced to -load offered cells per input per slot,
// with a trimodal packet-size mix around -pktbytes.
func runRouter(buffer pktbuf.Config, o routerOpts) {
	eng, err := router.New(router.Config{
		Ports:               o.ports,
		Classes:             o.classes,
		SchedulerIterations: o.iters,
		Buffer:              buffer,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()
	fmt.Printf("router: ports=%d classes=%d iters=%d voqs/input=%d load=%.2f cells/slot/port\n",
		o.ports, o.classes, o.iters, o.ports*o.classes, o.load)

	rng := rand.New(rand.NewSource(o.seed))
	sizes := [3]int{40, o.meanBytes, 1500}
	drawPacket := func() packet.Packet {
		size := sizes[rng.Intn(3)]
		payload := make([]byte, size)
		rng.Read(payload)
		return packet.Packet{
			Flow:    eng.VOQ(rng.Intn(o.ports), rng.Intn(o.classes)),
			Payload: payload,
		}
	}
	// Per-port pacing: accumulate -load cells of credit per slot and
	// offer the next drawn packet once the credit covers its cells.
	credit := make([]float64, o.ports)
	next := make([]packet.Packet, o.ports)
	for p := range next {
		next[p] = drawPacket()
	}
	out := make([]router.Egress, 0, 4*o.ports)
	for slot := uint64(0); slot < o.slots; slot++ {
		for p := 0; p < o.ports; p++ {
			credit[p] += o.load
			if cells := float64(packet.CellCount(len(next[p].Payload))); credit[p] >= cells {
				if err := eng.Offer(p, next[p]); err == nil {
					credit[p] -= cells
					next[p] = drawPacket()
				}
			}
		}
		var err error
		out, err = eng.StepBatch(1, out[:0])
		if err != nil {
			log.Fatalf("slot %d: %v", slot, err)
		}
	}

	st := eng.Stats()
	fmt.Printf("stats: %+v\n", st)
	fmt.Printf("fabric: %.3f cells/slot switched, %.3f matches/slot; %d/%d packets delivered\n",
		float64(st.SwitchedCells)/float64(st.Slots),
		float64(st.Matches)/float64(st.Slots),
		st.DeliveredPackets, st.OfferedPackets)
	clean := true
	skipped := uint64(0)
	for p := 0; p < o.ports; p++ {
		bs := eng.BufferStats(p)
		skipped += bs.FastForwardedSlots
		if !bs.Clean() {
			clean = false
			fmt.Printf("input %d buffer NOT clean: %+v\n", p, bs)
		}
	}
	if st.Slots > 0 {
		fmt.Printf("sparse: %d port-slots fast-forwarded (%.1f%% of %d ports × %d slots)\n",
			skipped, 100*float64(skipped)/float64(uint64(o.ports)*st.Slots), o.ports, st.Slots)
	}
	if clean {
		fmt.Println("verdict: CLEAN — zero misses, zero conflicts, bounded reordering on every port")
	} else {
		fmt.Println("verdict: NOT CLEAN")
		exit(1)
	}
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
