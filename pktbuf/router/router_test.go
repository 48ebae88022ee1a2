package router_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"testing"

	"repro/pktbuf"
	"repro/pktbuf/packet"
	"repro/pktbuf/router"
)

func testConfig(ports, classes, workers int) router.Config {
	return router.Config{
		Ports:   ports,
		Classes: classes,
		Workers: workers,
		Buffer: pktbuf.Config{
			LineRate:    pktbuf.OC768,
			Granularity: 2,
			Banks:       16,
		},
	}
}

func mustEngine(t *testing.T, cfg router.Config) *router.Engine {
	t.Helper()
	e, err := router.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// TestErrorTaxonomy: every engine error is a typed sentinel reachable
// with errors.Is, and config rejections wrap pktbuf.ErrBadConfig.
func TestErrorTaxonomy(t *testing.T) {
	if _, err := router.New(router.Config{Ports: 0}); !errors.Is(err, pktbuf.ErrBadConfig) {
		t.Errorf("Ports=0: err = %v, want ErrBadConfig", err)
	}
	if _, err := router.New(router.Config{Ports: 2, Classes: -1}); !errors.Is(err, pktbuf.ErrBadConfig) {
		t.Errorf("Classes=-1: err = %v, want ErrBadConfig", err)
	}
	// Buffer template rejections propagate the pktbuf taxonomy.
	bad := testConfig(2, 1, 1)
	bad.Buffer.LineRate = pktbuf.LineRate(99)
	if _, err := router.New(bad); !errors.Is(err, pktbuf.ErrBadConfig) {
		t.Errorf("bad LineRate: err = %v, want ErrBadConfig", err)
	}
	bad = testConfig(2, 1, 1)
	bad.Buffer.Granularity = 3 // does not divide B
	if _, err := router.New(bad); !errors.Is(err, pktbuf.ErrBadConfig) {
		t.Errorf("bad Granularity: err = %v, want ErrBadConfig", err)
	}

	e := mustEngine(t, testConfig(2, 1, 1))
	// Out-of-range VOQ arguments map to pktbuf.None, which Offer
	// rejects — never a silent alias of another output's queue.
	for _, bad := range [][2]int{{2, 0}, {-1, 0}, {0, 1}, {0, -1}} {
		if q := e.VOQ(bad[0], bad[1]); q != pktbuf.None {
			t.Errorf("VOQ(%d,%d) = %d, want None", bad[0], bad[1], q)
		}
	}
	if err := e.Offer(0, packet.Packet{Flow: e.VOQ(2, 0)}); !errors.Is(err, router.ErrBadFlow) {
		t.Errorf("out-of-range VOQ offer: err = %v, want ErrBadFlow", err)
	}
	if err := e.Offer(5, packet.Packet{Flow: 0}); !errors.Is(err, router.ErrBadPort) {
		t.Errorf("err = %v, want ErrBadPort", err)
	}
	if err := e.Offer(0, packet.Packet{Flow: 99}); !errors.Is(err, router.ErrBadFlow) {
		t.Errorf("err = %v, want ErrBadFlow", err)
	}
	if err := e.Offer(0, packet.Packet{Flow: -1}); !errors.Is(err, router.ErrBadFlow) {
		t.Errorf("err = %v, want ErrBadFlow", err)
	}

	capped := testConfig(2, 1, 1)
	capped.IngressCap = 4
	ec := mustEngine(t, capped)
	big := packet.Packet{Flow: 0, Payload: make([]byte, 3*packet.CellPayload)}
	if err := ec.Offer(0, big); err != nil {
		t.Fatal(err)
	}
	if err := ec.Offer(0, big); !errors.Is(err, router.ErrIngressFull) {
		t.Errorf("err = %v, want ErrIngressFull", err)
	}
	if n, err := ec.OfferBatch(0, []packet.Packet{{Flow: 0}, big}); n != 1 || !errors.Is(err, router.ErrIngressFull) {
		t.Errorf("OfferBatch = %d, %v; want 1, ErrIngressFull", n, err)
	}
	if got := ec.IngressBacklog(0); got != 4 {
		t.Errorf("backlog = %d", got)
	}

	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Step(); !errors.Is(err, router.ErrClosed) {
		t.Errorf("Step after Close: err = %v, want ErrClosed", err)
	}
	if err := e.Offer(0, packet.Packet{Flow: 0}); !errors.Is(err, router.ErrClosed) {
		t.Errorf("Offer after Close: err = %v, want ErrClosed", err)
	}
}

// TestSinglePacketAcrossFabric: one packet crosses the fabric
// byte-identical.
func TestSinglePacketAcrossFabric(t *testing.T) {
	e := mustEngine(t, testConfig(2, 1, 0))
	payload := bytes.Repeat([]byte{0x5A}, 2*packet.CellPayload+7)
	if err := e.Offer(0, packet.Packet{Flow: e.VOQ(1, 0), Payload: payload}); err != nil {
		t.Fatal(err)
	}
	var got []router.Egress
	for slot := 0; slot < 5000 && len(got) == 0; slot++ {
		eg, err := e.Step()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, eg...)
	}
	if len(got) != 1 {
		t.Fatalf("delivered %d packets", len(got))
	}
	g := got[0]
	if g.Output != 1 || g.Input != 0 || g.Packet.Flow != e.VOQ(1, 0) {
		t.Errorf("routing: %+v", g)
	}
	if !bytes.Equal(g.Packet.Payload, payload) {
		t.Error("payload corrupted in flight")
	}
	st := e.Stats()
	if st.OfferedPackets != 1 || st.DeliveredPackets != 1 || st.SwitchedCells != 3 {
		t.Errorf("stats = %+v", st)
	}
	for p := 0; p < 2; p++ {
		if bs := e.BufferStats(p); !bs.Clean() {
			t.Errorf("port %d buffer not clean: %+v", p, bs)
		}
	}
}

// TestShardedMatchesSerial pins that Config.Workers is ignored: the
// values that used to select the sharded engine (0, 8) and the serial
// one (1) produce a bit-identical egress stream and stats, slot for
// slot.
func TestShardedMatchesSerial(t *testing.T) {
	const ports, classes, slots = 4, 2, 6000
	type rec struct {
		slot, output, input int
		flow                pktbuf.Queue
		payload             []byte
	}
	run := func(workers int) (recs []rec, st router.Stats, bufs []pktbuf.Stats) {
		e := mustEngine(t, testConfig(ports, classes, workers))
		if got := e.Config().Workers; got != workers {
			t.Errorf("Config().Workers = %d, want %d as passed", got, workers)
		}
		rng := rand.New(rand.NewSource(2003))
		for slot := 0; slot < slots; slot++ {
			if rng.Intn(3) == 0 {
				in := rng.Intn(ports)
				payload := make([]byte, rng.Intn(4*packet.CellPayload))
				rng.Read(payload)
				p := packet.Packet{Flow: e.VOQ(rng.Intn(ports), rng.Intn(classes)), Payload: payload}
				if err := e.Offer(in, p); err != nil && !errors.Is(err, router.ErrIngressFull) {
					t.Fatal(err)
				}
			}
			eg, err := e.Step()
			if err != nil {
				t.Fatal(err)
			}
			for _, g := range eg {
				recs = append(recs, rec{slot, g.Output, g.Input, g.Packet.Flow, append([]byte(nil), g.Packet.Payload...)})
			}
		}
		for p := 0; p < ports; p++ {
			bufs = append(bufs, e.BufferStats(p))
		}
		return recs, e.Stats(), bufs
	}
	want, wantStats, wantBufs := run(1)
	if len(want) == 0 {
		t.Fatal("nothing delivered")
	}
	for _, workers := range []int{0, 8} {
		got, st, bufs := run(workers)
		if len(got) != len(want) {
			t.Fatalf("Workers=%d: %d egress packets, Workers=1 %d", workers, len(got), len(want))
		}
		for k := range want {
			a, b := want[k], got[k]
			if a.slot != b.slot || a.output != b.output || a.input != b.input || a.flow != b.flow || !bytes.Equal(a.payload, b.payload) {
				t.Fatalf("Workers=%d egress %d diverged: %+v vs %+v", workers, k, a, b)
			}
		}
		if st != wantStats {
			t.Errorf("Workers=%d stats %+v, Workers=1 %+v", workers, st, wantStats)
		}
		for p := range bufs {
			if bufs[p] != wantBufs[p] {
				t.Errorf("Workers=%d port %d buffer stats diverged", workers, p)
			}
		}
	}
}

// TestNoGoroutineNoAlloc: an engine built with the concurrency fields
// at their zero values starts no goroutine, and its StepBatch(64) loop
// allocates nothing once warm; Close stays idempotent.
func TestNoGoroutineNoAlloc(t *testing.T) {
	before := runtime.NumGoroutine()
	e, err := router.New(router.Config{Ports: 8, Classes: 2, Buffer: pktbuf.Config{
		LineRate: pktbuf.OC3072, Granularity: 4, Banks: 256}})
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 300)
	out := make([]router.Egress, 0, 256)
	slot := 0
	drive := func(slots int) {
		for end := slot + slots; slot < end; slot += 64 {
			// One 6-cell packet per port per 8 slots: 75 % load.
			for k := slot / 8; k < (slot+64)/8; k++ {
				for port := 0; port < 8; port++ {
					_ = e.Offer(port, packet.Packet{Flow: e.VOQ((port+k)%8, k%2), Payload: payload})
				}
			}
			var err error
			if out, err = e.StepBatch(64, out[:0]); err != nil {
				t.Fatal(err)
			}
		}
	}
	drive(10048)
	if allocs := testing.AllocsPerRun(10, func() { drive(640) }); allocs != 0 {
		t.Errorf("steady-state StepBatch(64) allocated %.2f per 640 slots", allocs)
	}
	if st := e.Stats(); st.DeliveredPackets < st.OfferedPackets*9/10 {
		t.Errorf("workload did not flow: %+v", st)
	}
	// Only growth counts: the test binary's own goroutines may exit.
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines: %d before New, %d after 10k slots", before, after)
	}
	for k := 0; k < 2; k++ {
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.StepBatch(64, nil); !errors.Is(err, router.ErrClosed) {
		t.Errorf("StepBatch after Close: err = %v, want ErrClosed", err)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines: %d before New, %d after Close", before, after)
	}
}

// TestConservationSharded pushes random packets through a 4×4 engine
// with StepBatch and checks every one emerges intact, in order per
// (input, output, class) stream.
func TestConservationSharded(t *testing.T) {
	const ports, classes = 4, 2
	e := mustEngine(t, testConfig(ports, classes, 0))
	rng := rand.New(rand.NewSource(99))

	type stream struct{ payloads [][]byte }
	var sent [ports][ports * classes]stream // [input][flow]
	offered := 0
	out := make([]router.Egress, 0, 64)
	verify := func(eg []router.Egress) {
		for _, g := range eg {
			q := &sent[g.Input][g.Packet.Flow]
			if len(q.payloads) == 0 {
				t.Fatalf("unexpected packet at output %d from input %d", g.Output, g.Input)
			}
			if !bytes.Equal(q.payloads[0], g.Packet.Payload) {
				t.Fatalf("payload mismatch at output %d from input %d flow %d",
					g.Output, g.Input, g.Packet.Flow)
			}
			q.payloads = q.payloads[1:]
			if want := int(g.Packet.Flow) / classes; g.Output != want {
				t.Fatalf("packet for flow %d emerged at output %d", g.Packet.Flow, g.Output)
			}
		}
	}
	for slot := 0; slot < 20000; slot++ {
		if offered < 500 && rng.Intn(8) == 0 {
			in := rng.Intn(ports)
			flow := e.VOQ(rng.Intn(ports), rng.Intn(classes))
			payload := make([]byte, rng.Intn(5*packet.CellPayload))
			rng.Read(payload)
			if err := e.Offer(in, packet.Packet{Flow: flow, Payload: payload}); err == nil {
				sent[in][flow].payloads = append(sent[in][flow].payloads, payload)
				offered++
			}
		}
		var err error
		out, err = e.StepBatch(1, out[:0])
		if err != nil {
			t.Fatalf("slot %d: %v", slot, err)
		}
		verify(out)
	}
	for slot := 0; slot < 200000 && e.Stats().DeliveredPackets < uint64(offered); slot += 64 {
		var err error
		out, err = e.StepBatch(64, out[:0])
		if err != nil {
			t.Fatal(err)
		}
		verify(out)
	}
	if got := e.Stats().DeliveredPackets; got != uint64(offered) {
		t.Fatalf("delivered %d of %d packets", got, offered)
	}
	for p := 0; p < ports; p++ {
		if bs := e.BufferStats(p); !bs.Clean() {
			t.Errorf("port %d buffer not clean: %+v", p, bs)
		}
	}
}

// TestStepBatchAppends: StepBatch extends the caller's slice without
// dropping prior contents.
func TestStepBatchAppends(t *testing.T) {
	e := mustEngine(t, testConfig(2, 1, 1))
	if err := e.Offer(0, packet.Packet{Flow: e.VOQ(1, 0), Payload: []byte{1}}); err != nil {
		t.Fatal(err)
	}
	out := make([]router.Egress, 0, 8)
	out = append(out, router.Egress{Output: -1})
	out, err := e.StepBatch(4000, out)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0].Output != -1 {
		t.Fatalf("StepBatch egress = %+v", out)
	}
}

// TestEngineStreamFingerprint pins everything the engine lets a caller
// observe: an FNV-64 over every egress record (slot, output, input,
// flow, payload bytes), the final Stats and each port's BufferStats,
// for a seeded bursty workload stepped slot by slot, whose quiet spells
// let Step fast-forward. The constants were recorded on the tree before
// the engine's implementation moved into this package and before each
// output's reassembler was narrowed to the streams that can reach it;
// both changes leave them untouched. BufferStats fields added since
// (HeadOverflows) are checked directly instead (pinnedBufferStats).
func TestEngineStreamFingerprint(t *testing.T) {
	want := map[string]uint64{
		"2x1": 0x7aca704b0ad26103,
		"4x2": 0xdb108ff887b0c8b6,
		"8x2": 0xa5cf01cf43526543,
	}
	for _, sh := range []struct{ ports, classes int }{{2, 1}, {4, 2}, {8, 2}} {
		name := fmt.Sprintf("%dx%d", sh.ports, sh.classes)
		t.Run(name, func(t *testing.T) {
			cfg := testConfig(sh.ports, sh.classes, 1)
			cfg.SchedulerIterations = 2
			e := mustEngine(t, cfg)
			rng := rand.New(rand.NewSource(int64(100*sh.ports + sh.classes)))
			h := fnv.New64a()
			put := func(vs ...uint64) {
				var w [8]byte
				for _, v := range vs {
					binary.LittleEndian.PutUint64(w[:], v)
					h.Write(w[:])
				}
			}
			for slot := 0; slot < 12000; slot++ {
				// Bursts in two of every three 1000-slot spells.
				if (slot/1000)%3 != 2 && rng.Intn(6) == 0 {
					for n := 1 + rng.Intn(2*sh.ports); n > 0; n-- {
						payload := make([]byte, rng.Intn(4*packet.CellPayload))
						rng.Read(payload)
						p := packet.Packet{Flow: e.VOQ(rng.Intn(sh.ports), rng.Intn(sh.classes)), Payload: payload}
						if err := e.Offer(rng.Intn(sh.ports), p); err != nil && !errors.Is(err, router.ErrIngressFull) {
							t.Fatal(err)
						}
					}
				}
				eg, err := e.Step()
				if err != nil {
					t.Fatalf("slot %d: %v", slot, err)
				}
				for _, g := range eg {
					put(uint64(slot), uint64(g.Output), uint64(g.Input), uint64(g.Packet.Flow), uint64(len(g.Packet.Payload)))
					h.Write(g.Packet.Payload)
				}
			}
			st := e.Stats()
			if st.DeliveredPackets == 0 {
				t.Fatal("nothing delivered")
			}
			fmt.Fprintf(h, "%+v", st)
			for p := 0; p < sh.ports; p++ {
				bs := e.BufferStats(p)
				if bs.HeadOverflows != 0 {
					t.Errorf("port %d: %d head overflows", p, bs.HeadOverflows)
				}
				fmt.Fprintf(h, "%+v", pinnedBufferStats(bs))
			}
			if got := h.Sum64(); got != want[name] {
				t.Errorf("stream fingerprint %#x, want %#x (stats %+v)", got, want[name], st)
			}
		})
	}
}

// TestNewMemoryQuadraticInPorts: New's allocation grows as Ports²
// (each port's Ports×Classes VOQs), not Ports³. At 64 ports × 2
// classes on OC-3072 with b = 4 New allocates about 4 MB; per-output
// reassembly state sized for the whole router's flow space once took
// about 29 MB.
func TestNewMemoryQuadraticInPorts(t *testing.T) {
	cfg := router.Config{Ports: 64, Classes: 2, Buffer: pktbuf.Config{
		LineRate: pktbuf.OC3072, Granularity: 4, Banks: 256}}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e, err := router.New(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if got := after.TotalAlloc - before.TotalAlloc; got > 8e6 {
		t.Errorf("New at 64 ports × 2 classes allocated %.1f MB, want ≤ 8 MB", float64(got)/1e6)
	}
}

// pinnedStats is pktbuf.Stats as TestEngineStreamFingerprint's
// constants were recorded: its fields, in order, before HeadOverflows
// joined them. Its %+v text is the text they hashed; pinnedBufferStats
// converts.
type pinnedStats struct {
	Arrivals, Requests, Deliveries, Bypasses uint64
	Misses, Drops, BadRequests               uint64
	TailSRAMHighWater, HeadSRAMHighWater     int
	MaxRequestRegisterOccupancy              int
	MaxRequestSkips                          int
	FastForwardedSlots                       uint64
}

func pinnedBufferStats(s pktbuf.Stats) pinnedStats {
	return pinnedStats{
		s.Arrivals, s.Requests, s.Deliveries, s.Bypasses,
		s.Misses, s.Drops, s.BadRequests,
		s.TailSRAMHighWater, s.HeadSRAMHighWater,
		s.MaxRequestRegisterOccupancy, s.MaxRequestSkips, s.FastForwardedSlots,
	}
}
