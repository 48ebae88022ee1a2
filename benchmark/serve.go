package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/pktbuf"
	"repro/pktbuf/serve"
)

// Serve workload shape (ISSUE 11). Load comes from this one process:
// one submitter goroutine per connection, blocking on a channel, never
// spinning (a polling submitter cost up to half the throughput on a
// 2-CPU host).
const (
	serveConns  = 2
	serveFlows  = 32  // per connection
	inflightCap = 512 // cells in flight per connection: half the default IngressRing, so admission never rejects
	closedBurst = 64
	pacedBurst  = 32
	// 2 connections × 32 cells every 320 µs = 200 000 cells/s.
	pacedPeriod    = 320 * time.Microsecond
	serveWarmCells = 200_000               // per connection, closed loop, in setup
	serveWindow    = 50 * time.Millisecond // ≥ 10 000 latency samples even when paced
	pickTable      = 1 << 16
	drainDeadline  = 10 * time.Second
)

// stamp is when a cell's latency clock started, and which in-flight
// burst (if traced) it belongs to.
type stamp struct {
	ns   int64
	slot uint32
}

const noSlot = ^uint32(0)

// stampFIFO carries stamps from the submitter to the reader of one
// flow. Deliveries are strictly sequential per queue, so the n-th
// delivery of a flow pairs with its n-th stamp. Single producer,
// single consumer; capacity covers the in-flight cap.
type stampFIFO struct {
	buf  [inflightCap]stamp
	head atomic.Uint32 // next to pop (reader)
	tail atomic.Uint32 // next to push (submitter)
}

func (f *stampFIFO) push(s stamp) {
	t := f.tail.Load()
	f.buf[t%inflightCap] = s
	f.tail.Store(t + 1)
}

func (f *stampFIFO) pop() (stamp, bool) {
	h := f.head.Load()
	if h == f.tail.Load() {
		return stamp{}, false
	}
	s := f.buf[h%inflightCap]
	f.head.Store(h + 1)
	return s, true
}

// burstState follows one traced burst until its last cell is back.
type burstState struct {
	remaining atomic.Int32
	spanID    uint64
	burstID   uint64
	start     time.Time
}

// latRecorder is one slice's latency samples of one connection, in
// windows of serveWindow from t0. Owned by the connection's reader.
type latRecorder struct {
	t0      int64
	windows []*hist
}

func (r *latRecorder) add(now, latNS int64) {
	k := int((now - r.t0) / int64(serveWindow))
	if k < 0 {
		k = 0
	}
	for len(r.windows) <= k {
		r.windows = append(r.windows, new(hist))
	}
	r.windows[k].add(latNS)
}

// benchConn is one client connection with its submitter-side and
// reader-side bookkeeping.
type benchConn struct {
	c      *serve.Client
	flows  []pktbuf.Queue
	local  []int32 // queue id → index into flows, -1 for foreign ids
	stamps []stampFIFO
	picks  []uint8
	tokens chan struct{} // one per burst that may be in flight

	submitted atomic.Uint64
	delivered atomic.Uint64
	// poisoned is set once the connection has seen a Reject: the
	// rejected cells' stamps stay queued, so the per-flow pairing of
	// stamps and deliveries is lost and later samples are dropped.
	poisoned atomic.Bool
	failure  atomic.Pointer[error] // first output-check failure seen by the reader

	// Reader-owned (OnDeliver runs on the client's reader goroutine).
	epoch       time.Time
	rec         *latRecorder
	tr          *tracer
	expect      []uint64 // next Seq per flow
	burstCells  int      // cells per credit
	sinceCredit int
	lastDeliver int64
	stallMaxNS  int64
	droppedLat  uint64
	bursts      [64]burstState // in-flight bursts ≤ inflightCap/pacedBurst = 16

	// Submitter-owned.
	pickPos     int
	burst       []pktbuf.Queue
	burstSeq    uint64
	submitNS    int64 // time inside Client.Submit
	inflightSum uint64
	inflightN   uint64
	late        hist // paced: wake-up minus due time
}

// newBenchConn prepares the bookkeeping for a connection that owns
// flows, out of queues queue ids in all.
func newBenchConn(flows []pktbuf.Queue, queues int, picks []uint8, epoch time.Time) *benchConn {
	bc := &benchConn{
		flows: flows, picks: picks, epoch: epoch,
		local:  make([]int32, queues),
		stamps: make([]stampFIFO, len(flows)),
		expect: make([]uint64, len(flows)),
	}
	for i := range bc.local {
		bc.local[i] = -1
	}
	for i, q := range bc.flows {
		bc.local[q] = int32(i)
	}
	return bc
}

func (bc *benchConn) fail(err error) {
	bc.failure.CompareAndSwap(nil, &err)
}

// nextBurst draws the next n cells' flows.
func (bc *benchConn) nextBurst(n int) []pktbuf.Queue {
	bc.burst = bc.burst[:0]
	for i := 0; i < n; i++ {
		bc.burst = append(bc.burst, bc.flows[bc.picks[bc.pickPos]])
		if bc.pickPos++; bc.pickPos == len(bc.picks) {
			bc.pickPos = 0
		}
	}
	return bc.burst
}

// stampBurst queues one stamp per cell of qs, in submission order.
func (bc *benchConn) stampBurst(qs []pktbuf.Queue, ns int64, slot uint32) {
	for _, q := range qs {
		bc.stamps[bc.local[q]].push(stamp{ns: ns, slot: slot})
	}
}

// deliver is the reader side: check the sequence, pair the delivery
// with its stamp, record the latency, and hand back a burst credit for
// every burst's worth of cells.
func (bc *benchConn) deliver(cell pktbuf.Cell, now int64) {
	i := int32(-1)
	if int(cell.Queue) < len(bc.local) && cell.Queue >= 0 {
		i = bc.local[cell.Queue]
	}
	if i < 0 {
		bc.fail(fmt.Errorf("delivery for queue %d, which this connection does not own", cell.Queue))
		return
	}
	if cell.Seq != bc.expect[i] {
		bc.fail(fmt.Errorf("queue %d delivered seq %d, want %d", cell.Queue, cell.Seq, bc.expect[i]))
	}
	bc.expect[i] = cell.Seq + 1
	st, ok := bc.stamps[i].pop()
	switch {
	case !ok:
		bc.fail(fmt.Errorf("queue %d delivered a cell that was never submitted", cell.Queue))
	case bc.poisoned.Load():
		bc.droppedLat++
	default:
		lat := now - st.ns
		if bc.rec != nil {
			bc.rec.add(now, lat)
		}
		// A stall is a delivery gap with this cell already waiting.
		if gap := min(now-bc.lastDeliver, lat); gap > bc.stallMaxNS {
			bc.stallMaxNS = gap
		}
		if st.slot != noSlot {
			if b := &bc.bursts[st.slot]; b.remaining.Add(-1) == 0 {
				bc.tr.record(b.spanID, 0, b.burstID, spanBurst, b.start, bc.epoch.Add(time.Duration(now)))
			}
		}
	}
	bc.lastDeliver = now
	if bc.sinceCredit++; bc.sinceCredit == bc.burstCells {
		bc.sinceCredit = 0
		bc.tokens <- struct{}{}
	}
	// Last: whoever reads this count may then touch the reader-owned
	// fields (drain does, before the next arm).
	bc.delivered.Add(1)
}

// arm sizes the credit channel for bursts of n cells and fills it: one
// credit per burst that fits under inflightCap, so the reader never
// blocks handing one back. Only called with nothing in flight.
func (bc *benchConn) arm(n int) {
	bc.burstCells, bc.sinceCredit = n, 0
	bc.tokens = make(chan struct{}, inflightCap/n)
	for i := 0; i < cap(bc.tokens); i++ {
		bc.tokens <- struct{}{}
	}
}

// submitLoop submits bursts of n cells until stop closes or limit
// cells are out (limit 0 = no limit). With period > 0 it is an open
// loop: burst k is due at start + k·period and its cells' latency
// clocks start then, however late the generator or a missing credit
// makes it; otherwise the clock starts at the Submit call.
func (bc *benchConn) submitLoop(n int, period time.Duration, start time.Time, limit uint64, stop <-chan struct{}, tr *tracer) error {
	for k := uint64(0); limit == 0 || k*uint64(n) < limit; k++ {
		due := time.Now()
		if period > 0 {
			due = start.Add(time.Duration(k) * period)
			if wait := time.Until(due); wait > 0 {
				select {
				case <-time.After(wait):
				case <-stop:
					return nil
				}
			}
			bc.late.add(time.Since(due).Nanoseconds())
		}
		waitStart := time.Now()
		select {
		case <-bc.tokens:
		case <-stop:
			return nil
		}
		if period == 0 {
			due = time.Now()
		}
		qs := bc.nextBurst(n)
		slot, spanID := noSlot, uint64(0)
		bc.burstSeq++
		if tr != nil {
			slot = uint32(bc.burstSeq % uint64(len(bc.bursts)))
			spanID = tr.newID()
			b := &bc.bursts[slot]
			b.spanID, b.burstID, b.start = spanID, bc.burstSeq, due
			b.remaining.Store(int32(n))
		}
		bc.stampBurst(qs, due.Sub(bc.epoch).Nanoseconds(), slot)
		bc.inflightSum += bc.submitted.Add(uint64(n)) - bc.delivered.Load()
		bc.inflightN++
		t0 := time.Now()
		err := bc.c.Submit(qs)
		t1 := time.Now()
		bc.submitNS += t1.Sub(t0).Nanoseconds()
		if err != nil {
			return fmt.Errorf("Submit: %w", err)
		}
		if tr != nil {
			tr.record(tr.newID(), spanID, bc.burstSeq, spanCreditWait, waitStart, t0)
			tr.record(tr.newID(), spanID, bc.burstSeq, spanSubmit, t0, t1)
		}
	}
	return nil
}

// serveWorkload drives one pktbufd over loopback TCP from two client
// connections: closed loop (serve_closed) or on a fixed schedule
// (serve_paced).
type serveWorkload struct {
	paced bool
	seed  int64
	env   *environment
	out   outcome

	d     *daemon
	conns []*benchConn
	epoch time.Time

	prom      map[string]float64 // /metrics deltas summed over slices
	wallNS    int64              // slice wall time summed
	daemonCPU int64
	switches  uint64
	clientCPU int64
	all       hist // every latency sample of the run
}

func newServeWorkload(seed int64, paced bool, env *environment) *serveWorkload {
	return &serveWorkload{seed: seed, paced: paced, env: env, prom: map[string]float64{}}
}

func (w *serveWorkload) outcome() *outcome { return &w.out }

func (w *serveWorkload) burst() (cells int, period time.Duration) {
	if w.paced {
		return pacedBurst, pacedPeriod
	}
	return closedBurst, 0
}

// within runs f with a deadline; a missed deadline is a failed run,
// not a hang.
func within(d time.Duration, what string, f func() error) error {
	done := make(chan error, 1)
	go func() { done <- f() }()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		return fmt.Errorf("%s: no result within %v", what, d)
	}
}

func (w *serveWorkload) setup() error {
	if err := w.env.buildDaemon(); err != nil {
		return err
	}
	d, err := startDaemon(w.env.daemonBin)
	if err != nil {
		return err
	}
	w.d = d
	if err := w.connect(); err != nil {
		return err
	}
	// Fixed-work warm-up, closed loop whatever the workload: it makes
	// setup_s scale with the program's speed.
	return w.drive(closedBurst, 0, serveWarmCells, 0, nil)
}

// connect dials the workload's connections to w.d and handshakes each
// for its flows.
func (w *serveWorkload) connect() error {
	w.epoch = time.Now()
	for i := 0; i < serveConns; i++ {
		var c *serve.Client
		if err := within(5*time.Second, "dial", func() (err error) {
			c, err = serve.Dial(w.d.dataAddr, serveFlows)
			return err
		}); err != nil {
			return err
		}
		bc := newBenchConn(c.Flows(), daemonBuffer.Queues, flowPicks(w.seed, i, serveFlows, pickTable), w.epoch)
		bc.c = c
		c.OnDeliver = func(cell pktbuf.Cell) { bc.deliver(cell, time.Since(bc.epoch).Nanoseconds()) }
		w.conns = append(w.conns, bc)
	}
	return nil
}

// drive runs the submitters for d (or until limit cells per connection
// are out), then waits for everything in flight to come back.
func (w *serveWorkload) drive(cells int, period time.Duration, limit uint64, d time.Duration, tr *tracer) error {
	stop := make(chan struct{})
	errs := make(chan error, len(w.conns))
	var wg sync.WaitGroup
	// Open loop: the connections' schedules interleave evenly (burst k
	// of connection i is due at start + (k + i/conns)·period), so the
	// aggregate schedule is the same in every run and not a matter of
	// which goroutine started first.
	start := time.Now().Add(time.Millisecond)
	for i, bc := range w.conns {
		bc.arm(cells)
		bc.tr = tr
		wg.Add(1)
		go func(bc *benchConn, start time.Time) {
			defer wg.Done()
			errs <- bc.submitLoop(cells, period, start, limit, stop, tr)
		}(bc, start.Add(period*time.Duration(i)/time.Duration(len(w.conns))))
	}
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	if limit > 0 {
		d = drainDeadline // a fixed-work run that takes longer has failed
	}
	var err error
	select {
	case <-time.After(d):
		if limit > 0 {
			err = fmt.Errorf("%d cells per connection not submitted within %v", limit, d)
		}
	case <-finished: // the limit is reached, or a submitter failed
	case <-w.d.exited:
		err = fmt.Errorf("pktbufd exited mid-run (last log line %q)", w.d.logTail())
	}
	close(stop)
	select {
	case <-finished:
	case <-time.After(drainDeadline):
		return errors.New("submitters did not stop in time")
	}
	for range w.conns {
		if e := <-errs; e != nil && err == nil {
			err = e
		}
	}
	if err != nil {
		return err
	}
	return w.drain()
}

// drain waits (bounded) until every submitted cell is delivered or
// rejected.
func (w *serveWorkload) drain() error {
	deadline := time.Now().Add(drainDeadline)
	for _, bc := range w.conns {
		for {
			st := bc.c.Stats()
			if st.Rejected > 0 {
				bc.poisoned.Store(true)
			}
			// The callback's own count, not st.Delivered: the client
			// counts a cell before it calls OnDeliver.
			if bc.delivered.Load()+st.Rejected >= st.Submitted {
				break
			}
			if err := bc.c.Err(); err != nil {
				return fmt.Errorf("connection failed: %w", err)
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%d cells still in flight %v after the last Submit", st.Submitted-st.Delivered-st.Rejected, drainDeadline)
			}
			time.Sleep(time.Millisecond)
		}
		if perr := bc.failure.Load(); perr != nil {
			return *perr
		}
	}
	return nil
}

func (w *serveWorkload) deliveredTotal() uint64 {
	var n uint64
	for _, bc := range w.conns {
		n += bc.delivered.Load()
	}
	return n
}

// sample is one reading of the sampler goroutine.
type sample struct {
	t         time.Time
	delivered uint64
	cpuNS     int64
	switches  uint64
}

// sample reads the daemon's CPU and the delivery count, and poisons
// any connection that has seen a Reject since the last reading.
func (w *serveWorkload) sample() (sample, error) {
	cpu, sw, err := procCPU(w.d.cmd.Process.Pid)
	s := sample{t: time.Now(), delivered: w.deliveredTotal(), cpuNS: cpu, switches: sw}
	for _, bc := range w.conns {
		if bc.c.Stats().Rejected > 0 {
			bc.poisoned.Store(true)
		}
	}
	return s, err
}

func (w *serveWorkload) measure(d time.Duration, tr *tracer) error {
	before, err := w.d.scrape()
	if err != nil {
		return err
	}
	cells, period := w.burst()
	first, err := w.sample()
	if err != nil {
		return err
	}
	for _, bc := range w.conns {
		bc.rec = &latRecorder{t0: first.t.Sub(w.epoch).Nanoseconds()}
	}
	clientCPU0 := selfCPU()
	samples := []sample{first}
	stopSampler := make(chan struct{})
	samplerDone := make(chan error, 1)
	go func() {
		tick := time.NewTicker(serveWindow)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				s, err := w.sample()
				if err != nil {
					samplerDone <- err
					return
				}
				samples = append(samples, s)
			case <-stopSampler:
				samplerDone <- nil
				return
			}
		}
	}()
	driveErr := w.drive(cells, period, 0, d, tr)
	close(stopSampler)
	if err := <-samplerDone; err != nil && driveErr == nil {
		driveErr = err
	}
	last, err := w.sample()
	if driveErr != nil {
		return driveErr
	}
	if err != nil {
		return err
	}
	after, err := w.d.scrape()
	if err != nil {
		return err
	}
	for k, v := range after {
		w.prom[k] += v - before[k]
	}
	w.clientCPU += selfCPU() - clientCPU0
	w.wallNS += last.t.Sub(first.t).Nanoseconds()
	w.daemonCPU += last.cpuNS - first.cpuNS
	w.switches += last.switches - first.switches
	// Windows run between consecutive sampler readings that were taken
	// while the submitters ran; the drain tail after the last one is
	// not a window.
	for k := 1; k < len(samples); k++ {
		a, b := samples[k-1], samples[k]
		win := window{
			wallNS: b.t.Sub(a.t).Nanoseconds(),
			cpuNS:  b.cpuNS - a.cpuNS,
			cells:  b.delivered - a.delivered,
			lat:    new(hist),
			traced: tr != nil,
		}
		for _, bc := range w.conns {
			if k-1 < len(bc.rec.windows) {
				win.lat.merge(bc.rec.windows[k-1])
			}
		}
		w.out.windows = append(w.out.windows, win)
	}
	for _, bc := range w.conns {
		for _, h := range bc.rec.windows {
			w.all.merge(h)
		}
		bc.rec = nil
	}
	return nil
}

// finish says Bye on every connection (bounded), so the daemon's
// SIGTERM finds nothing in flight, then checks the books.
func (w *serveWorkload) finish() error {
	if w.d == nil {
		return nil
	}
	d := w.d
	w.d = nil
	firstErr := w.closeConns()
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	measured := len(w.out.windows) > 0
	var final map[string]float64
	if measured && firstErr == nil {
		var err error
		final, err = d.scrape()
		keep(err)
		w.out.memMB, err = procStatusMB(d.cmd.Process.Pid, "VmHWM")
		keep(err)
		rss, err := procStatusMB(d.cmd.Process.Pid, "VmRSS")
		keep(err)
		w.out.layer = map[string]float64{mServeRSSMB: rss}
	}
	if firstErr != nil {
		d.kill()
		return firstErr
	}
	if err := d.stop(); err != nil {
		return err
	}
	if !measured {
		return nil
	}
	return w.checkAndLedger(final)
}

// closeConns ends every connection with a bounded Bye and checks the
// client-side books: delivered = submitted − rejected, and nothing the
// reader flagged. It fills attempted and failed.
func (w *serveWorkload) closeConns() error {
	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	var submitted, delivered, rejected, droppedLat uint64
	for i, bc := range w.conns {
		ctx, cancel := context.WithTimeout(context.Background(), drainDeadline)
		if err := bc.c.Bye(ctx); err != nil {
			keep(fmt.Errorf("conn %d: Bye: %w", i, err))
			bc.c.Close()
		}
		cancel()
		st := bc.c.Stats()
		if st.Delivered != st.Submitted-st.Rejected {
			keep(fmt.Errorf("conn %d: delivered %d of %d submitted − %d rejected", i, st.Delivered, st.Submitted, st.Rejected))
		}
		if st.Delivered != bc.delivered.Load() {
			keep(fmt.Errorf("conn %d: client counts %d deliveries, OnDeliver saw %d", i, st.Delivered, bc.delivered.Load()))
		}
		if perr := bc.failure.Load(); perr != nil {
			keep(fmt.Errorf("conn %d: %w", i, *perr))
		}
		submitted += st.Submitted
		delivered += st.Delivered
		rejected += st.Rejected
		droppedLat += bc.droppedLat
	}
	w.out.attempted = submitted
	w.out.failed = rejected + (submitted - rejected - delivered) + droppedLat
	return firstErr
}

// daemonBuffer is the engine configuration daemonArgs selects.
var daemonBuffer = pktbuf.Config{Queues: 64, LineRate: pktbuf.OC3072, Granularity: 4, Banks: 256}

// checkAndLedger checks the daemon's engine counters against the
// paper's guarantees and fills the serve, client and pktbuf ledger
// lines.
func (w *serveWorkload) checkAndLedger(final map[string]float64) error {
	sz, err := asBuilt(daemonBuffer)
	if err != nil {
		return err
	}
	st := pktbuf.Stats{
		Deliveries:                  uint64(final["pktbufd_deliveries_total"]),
		Bypasses:                    uint64(final["pktbufd_bypasses_total"]),
		Misses:                      uint64(final["pktbufd_misses_total"]),
		Drops:                       uint64(final["pktbufd_engine_drops_total"]),
		BadRequests:                 uint64(final["pktbufd_bad_requests_total"]),
		FastForwardedSlots:          uint64(final["pktbufd_fast_forwarded_slots_total"]),
		TailSRAMHighWater:           int(final["pktbufd_tail_sram_high_water_cells"]),
		HeadSRAMHighWater:           int(final["pktbufd_head_sram_high_water_cells"]),
		MaxRequestRegisterOccupancy: int(final["pktbufd_request_register_high_water"]),
		MaxRequestSkips:             int(final["pktbufd_request_skips_max"]),
	}
	if err := checkBuffer("daemon engine", st, sz); err != nil {
		return err
	}
	if n := final["pktbufd_tick_errors_total"]; n != 0 {
		return fmt.Errorf("daemon absorbed %v engine errors", n)
	}
	layer := w.out.layer
	bufferLayer(layer, []pktbuf.Stats{st}, sz, uint64(final["pktbufd_slots_total"]))
	p := w.prom
	cellsOut := p["pktbufd_deliveries_total"]
	const batchSum = "pktbufd_serving_batch_duration_seconds_sum"
	if cellsOut > 0 {
		layer[mServeSlotsPerCell] = p["pktbufd_slots_total"] / cellsOut
		layer[mServeEngineUSPerCel] = p[batchSum] * 1e6 / cellsOut
		layer[mServeCPUPerCell] = float64(w.daemonCPU) / 1e3 / cellsOut
		layer[mServeCtxPerKCell] = float64(w.switches) / cellsOut * 1e3
		layer[mClientCPUPerCell] = float64(w.clientCPU) / 1e3 / cellsOut
	}
	if w.wallNS > 0 {
		layer[mServeEngineBusy] = p[batchSum] * 1e9 / float64(w.wallNS)
	}
	if n := p["pktbufd_serving_batch_duration_seconds_count"]; n > 0 {
		layer[mServeBatchSlotsMean] = p["pktbufd_serving_batch_slots_total"] / n
	}
	if n := p["pktbufd_slots_total"]; n > 0 {
		layer[mServeFFShare] = p["pktbufd_fast_forwarded_slots_total"] / n
	}
	if offered := p["pktbufd_admitted_cells_total"] + p["pktbufd_admission_rejects_total"]; offered > 0 {
		layer[mServeRejIngressFull] = p[`pktbufd_admission_rejects{code="ingress_full"}`] / offered
		layer[mServeRejWindowFull] = p[`pktbufd_admission_rejects{code="window_full"}`] / offered
	}
	layer[mServeTickErrors] = final["pktbufd_tick_errors_total"]
	var submitNS int64
	var inflightSum, inflightN uint64
	var stall int64
	var late hist
	for _, bc := range w.conns {
		submitNS += bc.submitNS
		inflightSum += bc.inflightSum
		inflightN += bc.inflightN
		stall = max(stall, bc.stallMaxNS)
		late.merge(&bc.late)
	}
	if w.wallNS > 0 {
		layer[mClientSubmitBlock] = float64(submitNS) / float64(w.wallNS*int64(len(w.conns)))
	}
	if inflightN > 0 {
		layer[mClientInflight] = float64(inflightSum) / float64(inflightN)
	}
	layer[mClientLatencyP90] = w.all.quantile(0.90) / 1e3
	layer[mClientLatencyP99] = w.all.quantile(0.99) / 1e3
	layer[mClientLatencyP999] = w.all.quantile(0.999) / 1e3
	layer[mClientStallMaxMS] = float64(stall) / 1e6
	layer[mHarnessGenLateP99] = late.quantile(0.99) / 1e3
	return nil
}
