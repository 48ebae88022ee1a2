package main

import (
	"errors"
	"fmt"
	"runtime"
	"syscall"
	"time"

	"repro/pktbuf"
	"repro/pktbuf/packet"
	"repro/pktbuf/router"
)

// selfCPU returns the CPU time this process has used, all threads.
func selfCPU() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// heapAlloc returns the live heap. Two collections: the first may
// only queue finalizers and leave their objects to the second.
func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// inproc is the part the four in-process workloads share: fixed-work
// windows of timed driver calls, heap accounting, and the fixed point
// at which the simulated counters are taken.
type inproc struct {
	out        outcome
	heapBefore uint64
	allocs     uint64 // mallocs during measure
	slots      uint64 // slots simulated during measure
}

func (p *inproc) outcome() *outcome { return &p.out }

func (p *inproc) beginSetup() { p.heapBefore = heapAlloc() }

func (p *inproc) endSetup() {
	if after := heapAlloc(); after > p.heapBefore {
		p.out.memMB = float64(after-p.heapBefore) / (1 << 20)
	}
}

// runWindows runs windows of `calls` driver calls each until d has
// elapsed (always at least one window), timing every call. call does
// one driver call; totals returns the cumulative (cells delivered,
// slots simulated) of the system under test. After the first window of
// the run, fixedPoint reads the repeatable counters.
func (p *inproc) runWindows(d time.Duration, calls int, tr *tracer,
	call func(tr *tracer, parent, burst uint64) error, totals func() (cells, slots uint64), fixedPoint func() map[string]uint64) error {
	deadline := time.Now().Add(d)
	m0 := mallocs()
	_, s0 := totals()
	for first := true; first || time.Now().Before(deadline); first = false {
		w := window{lat: new(hist), traced: tr != nil}
		c0, sl0 := totals()
		cpu0 := selfCPU()
		t0 := time.Now()
		parent := tr.newID()
		prev := t0
		for i := 0; i < calls; i++ {
			if err := call(tr, parent, uint64(i)); err != nil {
				return err
			}
			now := time.Now()
			w.lat.add(now.Sub(prev).Nanoseconds())
			prev = now
		}
		w.wallNS = prev.Sub(t0).Nanoseconds()
		w.cpuNS = selfCPU() - cpu0
		tr.record(parent, 0, 0, spanWindow, t0, prev)
		c1, sl1 := totals()
		w.cells, w.slots = c1-c0, sl1-sl0
		p.out.windows = append(p.out.windows, w)
		if p.out.counters == nil {
			p.out.counters = fixedPoint()
		}
	}
	_, s1 := totals()
	p.allocs += mallocs() - m0
	p.slots += s1 - s0
	return nil
}

// bufferCounters renders a buffer's Stats as repeatable counters.
func bufferCounters(st pktbuf.Stats, now uint64) map[string]uint64 {
	return map[string]uint64{
		"slots": now, "arrivals": st.Arrivals, "requests": st.Requests,
		"deliveries": st.Deliveries, "bypasses": st.Bypasses, "fast_forwarded": st.FastForwardedSlots,
		"tail_high_water": uint64(st.TailSRAMHighWater), "head_high_water": uint64(st.HeadSRAMHighWater),
		"rr_high_water": uint64(st.MaxRequestRegisterOccupancy), "rr_skips_max": uint64(st.MaxRequestSkips),
	}
}

// checkBuffer is the buffer output check: every worst-case guarantee
// held, and the SRAM and Requests-Register high-water marks stayed
// within the dimensioned sizes.
func checkBuffer(what string, st pktbuf.Stats, sz pktbuf.Sizing) error {
	switch {
	case !st.Clean():
		return fmt.Errorf("%s: stats not clean: %+v", what, st)
	case st.Deliveries == 0:
		return fmt.Errorf("%s: nothing delivered", what)
	case st.TailSRAMHighWater > sz.TailSRAMCells:
		return fmt.Errorf("%s: tail SRAM high water %d > sizing %d", what, st.TailSRAMHighWater, sz.TailSRAMCells)
	case st.HeadSRAMHighWater > sz.HeadSRAMCells:
		return fmt.Errorf("%s: head SRAM high water %d > sizing %d", what, st.HeadSRAMHighWater, sz.HeadSRAMCells)
	case st.MaxRequestRegisterOccupancy > sz.RequestRegister:
		return fmt.Errorf("%s: requests register high water %d > sizing %d", what, st.MaxRequestRegisterOccupancy, sz.RequestRegister)
	}
	return nil
}

// asBuilt returns the structure sizes a buffer of cfg is built with
// (the analytic bounds plus core's engineering slack), for engines
// that own their buffers and expose only Stats.
func asBuilt(cfg pktbuf.Config) (pktbuf.Sizing, error) {
	b, err := pktbuf.New(cfg)
	if err != nil {
		return pktbuf.Sizing{}, err
	}
	return b.Sizing(), nil
}

// bufferLayer fills the pktbuf ledger lines from the Stats of the
// buffers a workload drove (one, or one per router port): counts are
// summed, headrooms are the tightest.
func bufferLayer(layer map[string]float64, stats []pktbuf.Stats, sz pktbuf.Sizing, slots uint64) {
	var sum pktbuf.Stats
	tail, head, rr, skips := sz.TailSRAMCells, sz.HeadSRAMCells, sz.RequestRegister, 0
	for _, st := range stats {
		sum.Deliveries += st.Deliveries
		sum.Bypasses += st.Bypasses
		sum.Misses += st.Misses
		sum.Drops += st.Drops
		sum.BadRequests += st.BadRequests
		sum.FastForwardedSlots += st.FastForwardedSlots
		tail = min(tail, sz.TailSRAMCells-st.TailSRAMHighWater)
		head = min(head, sz.HeadSRAMCells-st.HeadSRAMHighWater)
		rr = min(rr, sz.RequestRegister-st.MaxRequestRegisterOccupancy)
		skips = max(skips, st.MaxRequestSkips)
	}
	if slots > 0 {
		layer[mPktbufFFShare] = float64(sum.FastForwardedSlots) / float64(slots)
	}
	if sum.Deliveries > 0 {
		layer[mPktbufBypassShare] = float64(sum.Bypasses) / float64(sum.Deliveries)
	}
	layer[mPktbufMisses] = float64(sum.Misses)
	layer[mPktbufDrops] = float64(sum.Drops)
	layer[mPktbufBadRequests] = float64(sum.BadRequests)
	layer[mPktbufTailHeadroom] = float64(tail)
	layer[mPktbufHeadHeadroom] = float64(head)
	layer[mPktbufRRHeadroom] = float64(rr)
	layer[mPktbufRRSkipsMax] = float64(skips)
}

// slotsPerS is the quiet-window simulated slots per host second.
func slotsPerS(ws []window) float64 {
	return quantile(perWindow(quietWindows(ws), func(w *window) (float64, bool) {
		return float64(w.slots) / (float64(w.wallNS) / 1e9), w.wallNS > 0 && w.slots > 0
	}), 0.5)
}

// bufferWorkload drives one pktbuf.Buffer through TickBatch with a
// precomputed cyclic stimulus: buffer_dense and buffer_sparse differ
// only in configuration and stimulus.
type bufferWorkload struct {
	inproc
	cfg         pktbuf.Config
	batch       int // slots per TickBatch call
	windowCalls int
	stimulus    func() (steady, warm []pktbuf.Input)
	warmPasses  int // passes over warm (first) and steady (rest) in setup
	fillPasses  int // leading passes of warm that only pre-load queues

	buf    *pktbuf.Buffer
	steady []pktbuf.Input
	outs   []pktbuf.Output
	pos    int
	expect []uint64 // next Seq per queue, checked during warm-up
}

// Buffer workload shapes (ISSUE 11). Dense: batch 512, not 8192 — at
// 8192 the in/out arrays thrash L2 and the figure follows the
// neighbours' cache use. Sparse: a short pipeline (Lookahead 2,
// LatencySlots 2) so idle gaps outlast it and fast-forward engages.
const (
	denseQueues  = 512
	denseBatch   = 512
	denseFill    = 8    // cells per queue pre-loaded
	denseWarm    = 8192 // warm-up TickBatch calls (4 Mi slots)
	sparseQueues = 1024
	sparseSlots  = 1 << 20
	sparseBatch  = 4096
	sparseGap    = 8
	sparseLoad   = 0.02
	sparseWarm   = 32 // warm-up passes over the stimulus (32 Mi slots)
)

func newDenseWorkload(seed int64) *bufferWorkload {
	return &bufferWorkload{
		cfg:         pktbuf.Config{Queues: denseQueues, LineRate: pktbuf.OC3072, Granularity: 4, Banks: 256, MMA: pktbuf.ECQF},
		batch:       denseBatch,
		windowCalls: 1024,
		stimulus: func() ([]pktbuf.Input, []pktbuf.Input) {
			return denseStimulus(seed, denseQueues, denseBatch)
		},
		fillPasses: denseFill,
		warmPasses: denseFill + denseWarm,
	}
}

func newSparseWorkload(seed int64) *bufferWorkload {
	return &bufferWorkload{
		cfg:         pktbuf.Config{Queues: sparseQueues, LineRate: pktbuf.OC3072, Banks: 256, Lookahead: 2, LatencySlots: 2},
		batch:       sparseBatch,
		windowCalls: 4 * sparseSlots / sparseBatch,
		stimulus: func() ([]pktbuf.Input, []pktbuf.Input) {
			return sparseStimulus(seed, sparseQueues, sparseSlots, sparseGap, sparseLoad)
		},
		fillPasses: 1,
		warmPasses: sparseWarm,
	}
}

func (w *bufferWorkload) setup() error {
	w.beginSetup()
	buf, err := pktbuf.New(w.cfg)
	if err != nil {
		return err
	}
	w.buf = buf
	var warm []pktbuf.Input
	w.steady, warm = w.stimulus()
	w.outs = make([]pktbuf.Output, w.batch)
	w.expect = make([]uint64, w.cfg.Queues)
	for pass := 0; pass < w.warmPasses; pass++ {
		in := w.steady
		if pass < w.fillPasses {
			in = warm
		}
		for off := 0; off < len(in); off += w.batch {
			if err := w.tick(in[off:off+w.batch], true); err != nil {
				return err
			}
		}
	}
	w.endSetup()
	return nil
}

// tick runs one TickBatch call; with check it also verifies that
// deliveries are strictly sequential per queue.
func (w *bufferWorkload) tick(in []pktbuf.Input, check bool) error {
	n, err := w.buf.TickBatch(in, w.outs)
	if err != nil {
		return fmt.Errorf("TickBatch at slot %d: %w", w.buf.Now(), err)
	}
	if n != len(in) {
		return fmt.Errorf("TickBatch ran %d of %d slots", n, len(in))
	}
	if !check {
		return nil
	}
	for i := range w.outs[:n] {
		if o := &w.outs[i]; o.Ok {
			if o.Delivered.Seq != w.expect[o.Delivered.Queue] {
				return fmt.Errorf("queue %d delivered seq %d, want %d", o.Delivered.Queue, o.Delivered.Seq, w.expect[o.Delivered.Queue])
			}
			w.expect[o.Delivered.Queue]++
		}
	}
	return nil
}

func (w *bufferWorkload) measure(d time.Duration, tr *tracer) error {
	call := func(tr *tracer, parent, burst uint64) error {
		var t0 time.Time
		if tr != nil {
			t0 = time.Now()
		}
		err := w.tick(w.steady[w.pos:w.pos+w.batch], false)
		if tr != nil {
			tr.record(tr.newID(), parent, burst, spanTickBatch, t0, time.Now())
		}
		if w.pos += w.batch; w.pos == len(w.steady) {
			w.pos = 0
		}
		return err
	}
	totals := func() (uint64, uint64) { return w.buf.Stats().Deliveries, w.buf.Now() }
	before := w.slots
	err := w.runWindows(d, w.windowCalls, tr, call, totals, func() map[string]uint64 {
		return bufferCounters(w.buf.Stats(), w.buf.Now())
	})
	w.out.attempted += w.slots - before
	return err
}

func (w *bufferWorkload) finish() error {
	if w.buf == nil || len(w.out.windows) == 0 {
		return nil
	}
	st, sz := w.buf.Stats(), w.buf.Sizing()
	if err := checkBuffer("buffer", st, sz); err != nil {
		return err
	}
	layer := map[string]float64{mPktbufSlotsPerS: slotsPerS(w.out.windows)}
	bufferLayer(layer, []pktbuf.Stats{st}, sz, w.buf.Now())
	if w.slots > 0 {
		layer[mPktbufAllocsPerKSlot] = float64(w.allocs) / float64(w.slots) * 1e3
	}
	w.out.layer = layer
	return nil
}

// Router workload shape (ISSUE 11): 8 ports × 2 classes at 75 %
// offered load, driven as the README's session does — offer what
// arrives, then StepBatch(64).
const (
	routerPorts   = 8
	routerClasses = 2
	routerLoad    = 0.75
	routerStep    = 64      // slots per StepBatch call
	routerCycle   = 1 << 16 // slots per schedule cycle
	routerWarm    = 1       // warm-up cycles
)

var routerBuffer = pktbuf.Config{LineRate: pktbuf.OC3072, Granularity: 4, Banks: 256}

// routerWorkload drives a router.Engine with a cyclic packet schedule.
// router_serial and router_default differ in one line of newEngine.
type routerWorkload struct {
	inproc
	seed       int64
	serial     bool
	cycle      int // slots per schedule cycle
	warmCycles int // schedule cycles stepped in setup

	eng      *router.Engine
	sched    []offer
	next     int    // next offer of the cycle
	slot     uint32 // slot of the cycle
	payloads [len(routerSizes)][]byte
	egress   []router.Egress

	offered, refused uint64
	delivered        uint64
	backlogMax       int
}

func newRouterWorkload(seed int64, serial bool) *routerWorkload {
	return &routerWorkload{seed: seed, serial: serial, cycle: routerCycle, warmCycles: routerWarm}
}

// newEngine builds the engine under test. The default engine is what
// the package doc's minimal session gives; the serial one is the
// single-goroutine reference.
func newEngine(serial bool) (*router.Engine, error) {
	cfg := router.Config{Ports: routerPorts, Classes: routerClasses, Buffer: routerBuffer}
	if serial {
		cfg.Workers = 1
	}
	return router.New(cfg)
}

func (w *routerWorkload) setup() error {
	w.beginSetup()
	eng, err := newEngine(w.serial)
	if err != nil {
		return err
	}
	w.eng = eng
	w.sched = routerSchedule(w.seed, routerPorts, routerClasses, w.cycle, routerLoad, packet.CellPayload)
	for i, n := range routerSizes {
		w.payloads[i] = make([]byte, n)
	}
	w.egress = make([]router.Egress, 0, 256)
	for i := 0; i < w.warmCycles*w.cycle/routerStep; i++ {
		if err := w.step(nil, 0, 0); err != nil {
			return err
		}
	}
	w.endSetup()
	return nil
}

// step offers the packets of the next routerStep slots, then steps the
// engine through them and checks what left.
func (w *routerWorkload) step(tr *tracer, parent, burst uint64) error {
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	end := w.slot + routerStep
	for w.next < len(w.sched) && w.sched[w.next].slot < end {
		o := w.sched[w.next]
		w.next++
		w.offered++
		err := w.eng.Offer(int(o.port), packet.Packet{
			Flow:    w.eng.VOQ(int(o.output), int(o.class)),
			Payload: w.payloads[o.size],
		})
		if errors.Is(err, router.ErrIngressFull) {
			w.refused++
		} else if err != nil {
			return fmt.Errorf("Offer: %w", err)
		}
	}
	if w.slot = end; int(w.slot) == w.cycle {
		w.slot, w.next = 0, 0
	}
	for port := 0; port < routerPorts; port++ {
		w.backlogMax = max(w.backlogMax, w.eng.IngressBacklog(port))
	}
	var t1 time.Time
	if tr != nil {
		t1 = time.Now()
		tr.record(tr.newID(), parent, burst, spanRouterOffer, t0, t1)
	}
	eg, err := w.eng.StepBatch(routerStep, w.egress[:0])
	w.egress = eg
	if tr != nil {
		tr.record(tr.newID(), parent, burst, spanRouterStep, t1, time.Now())
	}
	if err != nil {
		return fmt.Errorf("StepBatch: %w", err)
	}
	for i := range eg {
		g := &eg[i]
		if want := int(g.Packet.Flow) / routerClasses; g.Output != want {
			return fmt.Errorf("packet of flow %d left on output %d, want %d", g.Packet.Flow, g.Output, want)
		}
		n, known := len(g.Packet.Payload), false
		for _, size := range routerSizes {
			known = known || n == size
		}
		if !known {
			return fmt.Errorf("packet of %d bytes left the router; no such size was offered", n)
		}
	}
	w.delivered += uint64(len(eg))
	return nil
}

// windowCalls is a quarter of the schedule cycle: ~60 ms serial,
// ~200 ms with the default engine.
func (w *routerWorkload) windowCalls() int { return w.cycle / routerStep / 4 }

func (w *routerWorkload) measure(d time.Duration, tr *tracer) error {
	offered0, refused0 := w.offered, w.refused
	totals := func() (uint64, uint64) {
		st := w.eng.Stats()
		return st.SwitchedCells, st.Slots
	}
	err := w.runWindows(d, w.windowCalls(), tr, w.step, totals, func() map[string]uint64 {
		return routerCounters(w.eng.Stats())
	})
	w.out.attempted += w.offered - offered0
	w.out.failed += w.refused - refused0
	return err
}

func routerCounters(st router.Stats) map[string]uint64 {
	return map[string]uint64{
		"slots": st.Slots, "offered_packets": st.OfferedPackets, "delivered_packets": st.DeliveredPackets,
		"switched_cells": st.SwitchedCells, "matches": st.Matches,
	}
}

func (w *routerWorkload) finish() error {
	if w.eng == nil {
		return nil
	}
	eng := w.eng
	w.eng = nil
	defer eng.Close()
	if len(w.out.windows) == 0 {
		return nil
	}
	st := eng.Stats()
	if st.DeliveredPackets != w.delivered || st.DeliveredPackets > st.OfferedPackets || st.DeliveredPackets == 0 {
		return fmt.Errorf("router stats %+v disagree with %d packets seen leaving", st, w.delivered)
	}
	portCfg := routerBuffer
	portCfg.Queues = routerPorts * routerClasses
	sz, err := asBuilt(portCfg)
	if err != nil {
		return err
	}
	stats := make([]pktbuf.Stats, routerPorts)
	for port := range stats {
		stats[port] = eng.BufferStats(port)
		if err := checkBuffer(fmt.Sprintf("port %d buffer", port), stats[port], sz); err != nil {
			return err
		}
	}
	if !w.serial {
		if err := w.checkAgainstSerial(); err != nil {
			return err
		}
	}
	layer := map[string]float64{
		mRouterSlotsPerS:    slotsPerS(w.out.windows),
		mRouterCellsPerSlot: float64(st.SwitchedCells) / float64(st.Slots),
		mRouterMatchShare:   float64(st.Matches) / float64(st.Slots*routerPorts),
		mRouterBacklogMax:   float64(w.backlogMax),
	}
	if w.offered > 0 {
		layer[mRouterRefusedShare] = float64(w.refused) / float64(w.offered)
	}
	if w.slots > 0 {
		layer[mRouterAllocsPerKSlot] = float64(w.allocs) / float64(w.slots) * 1e3
	}
	bufferLayer(layer, stats, sz, st.Slots*routerPorts)
	w.out.layer = layer
	return nil
}

// checkAgainstSerial replays the run up to its fixed point (warm-up
// plus one window) on the serial engine: router.Stats must be equal.
func (w *routerWorkload) checkAgainstSerial() error {
	ref := newRouterWorkload(w.seed, true)
	ref.cycle, ref.warmCycles = w.cycle, w.warmCycles
	defer ref.finish() // no windows: nothing to check, just Close
	if err := ref.setup(); err != nil {
		return fmt.Errorf("serial reference: %w", err)
	}
	for i := 0; i < ref.windowCalls(); i++ {
		if err := ref.step(nil, 0, 0); err != nil {
			return fmt.Errorf("serial reference: %w", err)
		}
	}
	want := routerCounters(ref.eng.Stats())
	for k, v := range want {
		if w.out.counters[k] != v {
			return fmt.Errorf("router stats differ from the serial engine's at slot %d: %v, serial %v", want["slots"], w.out.counters, want)
		}
	}
	return nil
}
