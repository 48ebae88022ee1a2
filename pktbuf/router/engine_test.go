package router

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/cell"
	"repro/internal/core"
	"repro/pktbuf/packet"
)

// slotRecord is a comparable snapshot of one egress packet (payload
// copied, so the record stands alone).
type slotRecord struct {
	output, input int
	flow          int
	payload       []byte
}

func recordEgress(eg []Egress, dst *[]slotRecord) {
	for _, e := range eg {
		*dst = append(*dst, slotRecord{
			output: e.Output, input: e.Input, flow: int(e.Packet.Flow),
			payload: append([]byte(nil), e.Packet.Payload...),
		})
	}
}

// denseStep is the differentials' reference step: it ticks the slot
// even when e is quiescent, never taking StepBatch's fast-forward, so
// the subject's fast-forward is pinned against dense ticking.
func denseStep(e *Engine) ([]Egress, error) {
	out, err := e.stepSlot(e.egScratch[:0])
	e.egScratch = out
	return out, err
}

func sameEgress(a, b []slotRecord) error {
	if len(a) != len(b) {
		return fmt.Errorf("egress diverges: %d packets vs %d", len(a), len(b))
	}
	for k := range a {
		if a[k].output != b[k].output || a[k].input != b[k].input ||
			a[k].flow != b[k].flow || !bytes.Equal(a[k].payload, b[k].payload) {
			return fmt.Errorf("egress %d diverges: %+v vs %+v", k, a[k], b[k])
		}
	}
	return nil
}

// auditRequests makes r check, after every port tick, that the request
// vector and scheduler bits it maintains incrementally equal a
// recompute over all of the port's VOQs. Safe to fire off the test
// goroutine: it reports once and disarms.
func auditRequests(t *testing.T, r *Engine) {
	r.tickHook = func(port int) {
		in, C := r.inputs[port], r.cfg.Classes
		for o := range in.reqVec {
			want := cell.NoQueue
			for q := cell.QueueID(o * C); q < cell.QueueID(o*C+C); q++ {
				if in.buf.Requestable(q) > 0 {
					want = q
					break
				}
			}
			bit := r.sched.Requested(port, o)
			if in.reqVec[o] != want || bit != (want != cell.NoQueue) {
				t.Errorf("slot %d port %d output %d: incremental request %d (bit %v), recompute %d",
					r.stats.Slots, port, o, in.reqVec[o], bit, want)
				r.tickHook = nil
				return
			}
		}
	}
}

// differential steps one seeded bursty workload through two routers of
// cfg over line cards of buf — the subject in StepBatch calls of
// lengths drawn from 1..2·span+2 (with the request audit on), the
// reference slot by slot through denseStep — and requires identical
// egress bytes and order, identical Stats, and identical per-port
// buffer stats apart from FastForwardedSlots. It reports through
// t.Errorf only, so it may run off the test goroutine.
func differential(t *testing.T, cfg Config, buf core.Config, span, slots int, seed int64, wantRetry bool) {
	ref, err := newEngine(cfg, buf)
	if err != nil {
		t.Error(err)
		return
	}
	sub, err := newEngine(cfg, buf)
	if err != nil {
		t.Error(err)
		return
	}
	auditRequests(t, sub)
	ports, classes := cfg.Ports, ref.Config().Classes
	rng := rand.New(rand.NewSource(seed))
	var refOut, subOut []slotRecord
	for done := 0; done < slots; {
		if rng.Intn(2) == 0 {
			// An ingress burst, landing wherever the batching happens
			// to be.
			for n := rng.Intn(3 * ports); n > 0; n-- {
				in, out, class := rng.Intn(ports), rng.Intn(ports), rng.Intn(classes)
				payload := make([]byte, rng.Intn(3*packet.CellPayload))
				rng.Read(payload)
				p := packet.Packet{Flow: ref.VOQ(out, class), Payload: payload}
				errA, errB := ref.Offer(in, p), sub.Offer(in, p)
				if (errA == nil) != (errB == nil) || (errA != nil && !errors.Is(errA, ErrIngressFull)) {
					t.Errorf("offer: reference %v, subject %v", errA, errB)
					return
				}
			}
		}
		n := min(1+rng.Intn(2*span+2), slots-done)
		for s := 0; s < n; s++ {
			eg, err := denseStep(ref)
			if err != nil {
				t.Error(err)
				return
			}
			recordEgress(eg, &refOut)
		}
		eg, err := sub.StepBatch(n, nil)
		if err != nil {
			t.Error(err)
			return
		}
		recordEgress(eg, &subOut)
		done += n
	}
	// Under reject pressure both sides drop (identically, per the
	// stats equality); Clean() only holds without it.
	_, drops := sameOutcome(t, ref, sub, refOut, subOut, !wantRetry)
	if wantRetry && drops == 0 {
		t.Error("no arrival was ever refused: the ErrBufferFull retry path exercised nothing")
	}
}

// sameOutcome requires the stepped reference and the batched subject
// to agree on egress, router stats and per-port buffer stats (apart
// from FastForwardedSlots), and returns the subject's fast-forwarded
// port-slots and refused arrivals.
func sameOutcome(t *testing.T, ref, sub *Engine, refOut, subOut []slotRecord, wantClean bool) (skipped, drops uint64) {
	if err := sameEgress(refOut, subOut); err != nil {
		t.Error(err)
	}
	if ref.Stats() != sub.Stats() {
		t.Errorf("router stats diverge:\nstep  %+v\nbatch %+v", ref.Stats(), sub.Stats())
	}
	for p := range sub.inputs {
		rs, ss := ref.inputs[p].buf.Stats(), sub.inputs[p].buf.Stats()
		skipped += ss.FastForwardedSlots
		drops += ss.Drops
		rs.FastForwardedSlots, ss.FastForwardedSlots = 0, 0
		if rs != ss {
			t.Errorf("port %d buffer stats diverge:\nstep  %+v\nbatch %+v", p, rs, ss)
		}
		if wantClean && !ss.Clean() {
			t.Errorf("port %d not clean: %+v", p, ss)
		}
	}
	return skipped, drops
}

// onEngines is the workers column of the matrices below: workers=1
// calls f once on the test goroutine; workers=0 — formerly "one worker
// per port" — calls it once per port on concurrent goroutines, so each
// call drives its own routers beside the others'.
func onEngines(workers, ports int, f func(engine int)) {
	if workers == 1 {
		f(0)
		return
	}
	var wg sync.WaitGroup
	for e := 0; e < ports; e++ {
		wg.Add(1)
		go func(e int) {
			defer wg.Done()
			f(e)
		}(e)
	}
	wg.Wait()
}

// differentialMatrix runs differential over span K and a workers
// column. The Epoch test names and the column are inherited from the
// sharded engine this package used to have, where K was its planning
// window and workers its goroutine count; both now describe the test
// driver. K is the StepBatch span; workers (see onEngines) runs one
// pair of routers, or one pair per port each with its own seed, which
// under -race pins what replaced sharding: independent engines share
// no state.
func differentialMatrix(t *testing.T, shapes []struct{ ports, classes int }, spans []int, bufCfg core.Config, wantRetry bool) {
	for _, pc := range shapes {
		for _, K := range spans {
			for _, workers := range []int{1, 0} {
				name := fmt.Sprintf("ports=%d/classes=%d/K=%d/workers=%d", pc.ports, pc.classes, K, workers)
				t.Run(name, func(t *testing.T) {
					cfg := Config{Ports: pc.ports, Classes: pc.classes, SchedulerIterations: 2}
					seed := int64(1000*pc.ports + 100*pc.classes + K)
					slots := 4000
					if workers != 1 {
						slots = 1500 // per engine
					}
					onEngines(workers, pc.ports, func(e int) {
						differential(t, cfg, bufCfg, K, slots, seed+int64(7919*e), wantRetry)
					})
				})
			}
		}
	}
}

// TestEpochMatchesSerial: for every StepBatch span, port count and
// class count, batches of lengths misaligned with everything are
// bit-identical to stepping slot by slot.
func TestEpochMatchesSerial(t *testing.T) {
	differentialMatrix(t, []struct{ ports, classes int }{{4, 1}, {4, 2}, {8, 2}}, []int{1, 2, 4, 16},
		core.Config{B: 8, Bsmall: 2, Banks: 16}, false)
}

// TestEpochRepairBoundaries is the same bar under reject pressure: a
// tail SRAM tiny enough, over bounded banks, that arrivals are refused
// with ErrBufferFull and retried next slot. The request audit runs
// through every refused arrival.
func TestEpochRepairBoundaries(t *testing.T) {
	differentialMatrix(t, []struct{ ports, classes int }{{4, 2}, {8, 2}}, []int{2, 4, 16},
		core.Config{B: 8, Bsmall: 2, Banks: 4, BankCapacityBlocks: 4, TailSRAMCells: 6}, true)
}

// TestEngineMatchesSerialRouter pins that StepBatch and Step are one
// engine: the same offered workload gives the same egress bytes in the
// same order, the same Stats and the same per-port buffer stats whether
// it is stepped in batches or slot by slot.
func TestEngineMatchesSerialRouter(t *testing.T) {
	cfg := Config{Ports: 4, Classes: 2, SchedulerIterations: 2}
	for _, span := range []int{1, 7, 64} {
		differential(t, cfg, core.Config{B: 8, Bsmall: 2, Banks: 16}, span, 8000, 42, false)
	}
}

// TestEngineStepBatch: StepBatch(slots) is slot-for-slot identical to
// repeated Step, and appends into the caller's slice.
func TestEngineStepBatch(t *testing.T) {
	cfg, buf := Config{Ports: 2, Classes: 1}, core.Config{B: 8, Bsmall: 2, Banks: 16}
	a, err := newEngine(cfg, buf)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newEngine(cfg, buf)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{3}, 2*packet.CellPayload)
	for port := 0; port < 2; port++ {
		for k := 0; k < 5; k++ {
			for _, r := range []*Engine{a, b} {
				if err := r.Offer(port, packet.Packet{Flow: r.VOQ(1-port, 0), Payload: payload}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	const slots = 3000
	var fromStep, fromBatch []slotRecord
	for s := 0; s < slots; s++ {
		eg, err := a.Step()
		if err != nil {
			t.Fatal(err)
		}
		recordEgress(eg, &fromStep)
	}
	out := make([]Egress, 1, 64)
	out[0].Output = -1
	out, err = b.StepBatch(slots, out)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Output != -1 {
		t.Error("StepBatch overwrote the caller's prefix")
	}
	recordEgress(out[1:], &fromBatch)
	if err := sameEgress(fromStep, fromBatch); err != nil {
		t.Fatal(err)
	}
	if len(fromBatch) != 10 {
		t.Errorf("delivered %d of 10 packets", len(fromBatch))
	}
	if a.Stats() != b.Stats() {
		t.Errorf("stats diverged: %+v vs %+v", a.Stats(), b.Stats())
	}
}

// TestEngineOfferBatch: partial acceptance stops at ErrIngressFull.
func TestEngineOfferBatch(t *testing.T) {
	e, err := newEngine(Config{Ports: 2, Classes: 1, IngressCap: 4}, core.Config{B: 8, Bsmall: 2, Banks: 16})
	if err != nil {
		t.Fatal(err)
	}
	ps := make([]packet.Packet, 3)
	for k := range ps {
		ps[k] = packet.Packet{Flow: 0, Payload: bytes.Repeat([]byte{1}, 2*packet.CellPayload)}
	}
	n, err := e.OfferBatch(0, ps)
	if n != 2 || !errors.Is(err, ErrIngressFull) {
		t.Errorf("OfferBatch = %d, %v; want 2, ErrIngressFull", n, err)
	}
	if got := e.IngressBacklog(0); got != 4 {
		t.Errorf("backlog = %d", got)
	}
	if n, err := e.OfferBatch(5, ps); n != 0 || !errors.Is(err, ErrBadPort) {
		t.Errorf("OfferBatch bad port = %d, %v", n, err)
	}
}

// TestEngineClose: a closed router rejects further use and Close is
// idempotent.
func TestEngineClose(t *testing.T) {
	e, err := newEngine(Config{Ports: 2, Classes: 1}, core.Config{B: 8, Bsmall: 2, Banks: 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Step(); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 2; k++ {
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Step(); !errors.Is(err, ErrClosed) {
		t.Errorf("Step after Close: %v", err)
	}
	if _, err := e.StepBatch(3, nil); !errors.Is(err, ErrClosed) {
		t.Errorf("StepBatch after Close: %v", err)
	}
	if err := e.Offer(0, packet.Packet{Flow: 0}); !errors.Is(err, ErrClosed) {
		t.Errorf("Offer after Close: %v", err)
	}
	if _, err := e.OfferBatch(0, []packet.Packet{{Flow: 0}}); !errors.Is(err, ErrClosed) {
		t.Errorf("OfferBatch after Close: %v", err)
	}
}

// TestConfigErrorsWrapBadConfig: router config rejections fold into
// the core typed taxonomy.
func TestConfigErrorsWrapBadConfig(t *testing.T) {
	cases := []Config{
		{Ports: 0},
		{Ports: -3},
		{Ports: 2, Classes: -1},
	}
	for i, cfg := range cases {
		if _, err := New(cfg); !errors.Is(err, core.ErrBadConfig) {
			t.Errorf("case %d: New err = %v, want ErrBadConfig", i, err)
		}
	}
	// b does not divide B.
	if _, err := newEngine(Config{Ports: 2, Classes: 1}, core.Config{B: 8, Bsmall: 3, Banks: 16}); !errors.Is(err, core.ErrBadConfig) {
		t.Errorf("case %d: New err = %v, want ErrBadConfig", len(cases), err)
	}
}

// TestEngineZeroAllocSteadyState: once rings and reassembly buffers
// are warm the slot loop allocates nothing, whether StepBatch is called
// every slot or every 16 (epoch = slots per call).
func TestEngineZeroAllocSteadyState(t *testing.T) {
	for _, epoch := range []int{1, 16} {
		t.Run(fmt.Sprintf("epoch=%d", epoch), func(t *testing.T) {
			e, err := newEngine(Config{Ports: 4, Classes: 2}, core.Config{B: 8, Bsmall: 2, Banks: 64})
			if err != nil {
				t.Fatal(err)
			}
			// Deterministic sub-saturation workload (one 6-cell packet
			// per 5 slots, destinations round-robin) so every ring and
			// buffer occupancy plateaus during warmup.
			payload := make([]byte, 300)
			out := make([]Egress, 0, 256)
			slot := 0
			drive := func(slots int) {
				for end := slot + slots; slot < end; {
					for s := slot; s < slot+epoch; s++ {
						if k := s / 5; s%5 == 0 {
							_ = e.Offer(k%4, packet.Packet{Flow: e.VOQ((k/4)%4, k%2), Payload: payload})
						}
					}
					var err error
					if out, err = e.StepBatch(epoch, out[:0]); err != nil {
						t.Fatal(err)
					}
					slot += epoch
				}
			}
			drive(8000) // warm every ring, arena and reassembly buffer
			if allocs := testing.AllocsPerRun(10, func() { drive(160) }); allocs != 0 {
				t.Errorf("steady-state slots allocated %.2f per 160-slot run", allocs)
			}
			if st := e.Stats(); st.DeliveredPackets < st.OfferedPackets*9/10 {
				t.Errorf("workload did not flow: %+v", st)
			}
		})
	}
}

// TestEngineFastForwardMatchesSerial: a StepBatch whose traffic drains
// mid-batch must skip the quiescent tail and still be bit-identical to
// stepping every slot — same egress, same router stats, same per-port
// buffer stats (skipped-slot counters aside) — and it must actually
// have skipped. The workers column is onEngines'.
func TestEngineFastForwardMatchesSerial(t *testing.T) {
	fastForwardMatrix(t, 5000)
}

// TestEpochFastForwardMatchesSerial is the same drain stepped in
// 16-slot batches, so the drain lands mid-batch many times over and
// whole batches run quiescent.
func TestEpochFastForwardMatchesSerial(t *testing.T) {
	fastForwardMatrix(t, 16)
}

func fastForwardMatrix(t *testing.T, span int) {
	const ports = 4
	for _, workers := range []int{1, 0} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			onEngines(workers, ports, func(e int) {
				fastForwardDifferential(t, ports, span, int64(9+e))
			})
		})
	}
}

// fastForwardDifferential offers four bursts with long quiescent tails
// between them; like differential it reports through t.Errorf only.
func fastForwardDifferential(t *testing.T, ports, span int, seed int64) {
	const classes, burstSlots = 2, 5000
	cfg, buf := Config{Ports: ports, Classes: classes, SchedulerIterations: 2}, core.Config{B: 8, Bsmall: 2, Banks: 16}
	ref, err := newEngine(cfg, buf)
	if err != nil {
		t.Error(err)
		return
	}
	sub, err := newEngine(cfg, buf)
	if err != nil {
		t.Error(err)
		return
	}
	auditRequests(t, sub)
	rng := rand.New(rand.NewSource(seed))
	var refOut, subOut []slotRecord
	for burst := 0; burst < 4; burst++ {
		for k := 0; k < 12; k++ {
			in, out, class := rng.Intn(ports), rng.Intn(ports), rng.Intn(classes)
			payload := make([]byte, 1+rng.Intn(3*packet.CellPayload))
			rng.Read(payload)
			for _, r := range []*Engine{ref, sub} {
				if err := r.Offer(in, packet.Packet{Flow: r.VOQ(out, class), Payload: payload}); err != nil {
					t.Error(err)
					return
				}
			}
		}
		for s := 0; s < burstSlots; s++ {
			eg, err := denseStep(ref)
			if err != nil {
				t.Error(err)
				return
			}
			recordEgress(eg, &refOut)
		}
		for s := 0; s < burstSlots; s += span {
			eg, err := sub.StepBatch(min(span, burstSlots-s), nil)
			if err != nil {
				t.Error(err)
				return
			}
			recordEgress(eg, &subOut)
		}
	}
	if skipped, _ := sameOutcome(t, ref, sub, refOut, subOut, true); skipped == 0 {
		t.Error("StepBatch never fast-forwarded: the differential exercised nothing")
	}
	if !sub.Quiescent() || !ref.Quiescent() {
		t.Error("routers not quiescent after drain")
	}
}

// TestTickErrorKeepsLineCardInSync: the buffer completes a slot even
// when it reports an error, so the line card must commit what the
// buffer did. A request for an empty VOQ (ErrBadRequest) is forced
// alongside a pending arrival and, later, alongside a delivery; the
// arrival must be admitted exactly once, the delivery consumed, and
// the line card's sequence counters must equal the buffer's afterwards.
func TestTickErrorKeepsLineCardInSync(t *testing.T) {
	mk := func() *Engine {
		r, err := newEngine(Config{Ports: 2, Classes: 2}, core.Config{B: 8, Bsmall: 2, Banks: 16})
		if err != nil {
			t.Fatal(err)
		}
		// Two single-cell packets to output 0: two pending arrivals.
		for _, b := range []byte{0xA1, 0xB2} {
			if err := r.Offer(0, packet.Packet{Flow: r.VOQ(0, 0), Payload: []byte{b}}); err != nil {
				t.Fatal(err)
			}
		}
		return r
	}
	step := func(r *Engine) []Egress {
		t.Helper()
		eg, err := r.Step()
		if err != nil {
			t.Fatal(err)
		}
		return eg
	}
	// A twin on which port 0's odd slots are idle instead of failing
	// (the same to the buffer) measures how many Steps after the first
	// odd slot the first cell is delivered.
	twin := mk()
	if _, err := twin.tickPort(0, -1, nil); err != nil {
		t.Fatal(err)
	}
	steps := 0
	for ; twin.inputs[0].delivered[0] == 0; steps++ {
		if steps > 5000 {
			t.Fatal("twin never delivered")
		}
		step(twin)
	}

	r := mk()
	auditRequests(t, r)
	in := r.inputs[0]
	inSync := func(when string) {
		t.Helper()
		for q := cell.QueueID(0); int(q) < r.voqs; q++ {
			if in.arrivals[q] != in.buf.ArrivedSeq(q) || in.delivered[q] != in.buf.DeliveredSeq(q) {
				t.Fatalf("%s: VOQ %d: line card arrivals=%d delivered=%d, buffer %d %d", when, q,
					in.arrivals[q], in.delivered[q], in.buf.ArrivedSeq(q), in.buf.DeliveredSeq(q))
			}
		}
	}
	// badTick ticks port 0 as if the scheduler had matched it to
	// output 1, whose VOQs are empty.
	badTick := func() []Egress {
		t.Helper()
		in.reqVec[1] = cell.QueueID(r.VOQ(1, 0))
		out, err := r.tickPort(0, 1, nil)
		if !errors.Is(err, core.ErrBadRequest) {
			t.Fatalf("tick error = %v, want ErrBadRequest", err)
		}
		if in.reqVec[1] != cell.NoQueue {
			t.Fatal("request vector kept the bad VOQ")
		}
		return out
	}

	badTick()
	inSync("bad request beside an arrival")
	if got := r.IngressBacklog(0); got != 1 {
		t.Fatalf("backlog = %d after the failed slot, want 1: the admitted cell must leave pending", got)
	}
	for s := 0; s < steps-1; s++ {
		if eg := step(r); len(eg) != 0 {
			t.Fatalf("egress %d steps early: %+v", steps-1-s, eg)
		}
	}
	got := badTick()
	inSync("bad request beside a delivery")
	if len(got) != 1 || !bytes.Equal(got[0].Packet.Payload, []byte{0xA1}) {
		t.Fatalf("egress of the failed slot = %+v, want the first packet", got)
	}
	// The router carries on cleanly: the second packet arrives intact.
	for slot := 0; r.Stats().DeliveredPackets < 2; slot++ {
		if slot > 5000 {
			t.Fatal("second packet never delivered")
		}
		for _, e := range step(r) {
			if !bytes.Equal(e.Packet.Payload, []byte{0xB2}) {
				t.Fatalf("second packet corrupted: %+v", e)
			}
		}
	}
	inSync("after drain")
	if st := r.Stats(); st.SwitchedCells != 2 {
		t.Errorf("stats = %+v, want both cells switched", st)
	}
}
